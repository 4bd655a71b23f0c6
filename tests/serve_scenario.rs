//! Scenario-engine semantics: a stampede on one product descriptor must
//! compute it exactly once, ensemble fan-out must equal per-realization
//! emulation with the published decorrelated seeds, and the derived
//! statistics must match ground truth; and every product source ×
//! statistic, windowed or not, error paths included, is served exactly
//! as in process on every backend and over the wire.

mod common;

use common::conformance::Front;
use common::*;
use exaclim::TrainedEmulator;
use exaclim_serve::scenario::{realization_seed, MAX_PRODUCT_VALUES};
use exaclim_serve::{
    CatalogAnswer, CatalogQuery, Client, NetConfig, ProductData, ProductDescriptor, ProductSource,
    ProductStat, Request, Response, ServeConfig, ServeError, Server,
};
use exaclim_stats::trend::{fit_location, TrendConfig};
use exaclim_stats::ForcingSeries;
use exaclim_store::{ArchiveWriter, ByteCodec, Codec, FieldMeta};
use std::sync::Barrier;

/// The conformance table's mixed-batch in-process and `NetServer` rows:
/// every product in the workload, on every backend and over the wire,
/// equals the oracle's.
#[test]
fn derived_products_bit_identical_network_vs_in_process() {
    conformance::run(|row| {
        matches!(row.front, Front::InProcess | Front::Net(_)) && !row.warm_slices && !row.chaos
    });
}

fn fixture_server() -> Server {
    Server::new(catalog(), ServeConfig::default())
}

fn product(server: &Server, request: Request) -> ProductData {
    match server.handle(&request) {
        Ok(Response::Product(data)) => data,
        other => panic!("{request:?}: {other:?}"),
    }
}

fn slice_values(server: &Server, range: std::ops::Range<u64>) -> Vec<f64> {
    match server.handle(&slice("t2m", range)) {
        Ok(Response::Slice(data)) => data.values,
        other => panic!("{other:?}"),
    }
}

/// An archive that ships its emulator as a snapshot member beside its
/// field members: the catalog loads the model out of it, and it emulates
/// bit-identically to the model it was saved from. A truncated copy of
/// the member is a typed error that registers nothing, and the server
/// built from that catalog serves fields, the loaded model and its
/// parameter bytes.
#[test]
fn emulator_snapshot_members_load_beside_fields() {
    let em = emulator();
    let snap = em.to_snapshot();
    assert_eq!(snap.version, TrainedEmulator::SNAPSHOT_VERSION);
    let field: Vec<f64> = (0..VPS * T_MAX as usize)
        .map(|i| 250.0 + (i as f64 * 0.1).cos())
        .collect();
    let meta = FieldMeta {
        ntheta: 2,
        nphi: VPS / 2,
        start_year: 2000,
        tau: 365,
    };
    let mut w = ArchiveWriter::new(std::io::Cursor::new(Vec::new())).unwrap();
    w.add_field("t2m", Codec::F32, meta, VPS, CHUNK_T, &field)
        .unwrap();
    let cut = &snap.payload[..snap.payload.len() / 2];
    for (name, payload) in [(snap.name.as_str(), &snap.payload[..]), ("cut", cut)] {
        w.add_snapshot(name, snap.version, ByteCodec::Rle, payload, 1 << 12)
            .unwrap();
    }
    w.add_field("u10", Codec::Raw64, meta, VPS, CHUNK_T, &field)
        .unwrap();
    let bytes = w.finish().unwrap().0.into_inner();

    let mut catalog = exaclim_serve::Catalog::new();
    catalog.open_archive_bytes(ARCHIVE, bytes).unwrap();
    let err = catalog
        .load_emulator_from_archive("cut", ARCHIVE, "cut")
        .unwrap_err();
    assert!(
        matches!(&err, ServeError::Emulation(msg) if msg.contains("snapshot v2")),
        "{err:?}"
    );
    catalog
        .load_emulator_from_archive(EMULATOR, ARCHIVE, TrainedEmulator::SNAPSHOT_MEMBER)
        .unwrap();
    assert!(matches!(
        catalog.emulator("cut"),
        Err(ServeError::UnknownEmulator(_))
    ));

    let server = Server::new(catalog, ServeConfig::default());
    let emulate = |emulator: &str| Request::Emulate {
        emulator: emulator.to_string(),
        t_max: 30,
        seed: 5,
    };
    let requests = [
        emulate(EMULATOR),
        slice("t2m", 0..10),
        emulate("cut"),
        Request::Catalog(CatalogQuery::ListEmulators),
        slice("u10", 3..20),
    ];
    let answers = server.handle_batch(&requests);
    let want = em.emulate(30, 5).unwrap().data;
    match &answers[0] {
        Ok(Response::Emulate(data)) => assert_eq!(
            data.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        ),
        other => panic!("{other:?}"),
    }
    let values = |answer: &Result<Response, ServeError>| match answer {
        Ok(Response::Slice(data)) => data.values.clone(),
        other => panic!("{other:?}"),
    };
    let as_f32 = |v: &[f64]| v.iter().map(|&x| x as f32 as f64).collect::<Vec<_>>();
    assert_eq!(values(&answers[1]), as_f32(&field[..10 * VPS]));
    assert!(matches!(answers[2], Err(ServeError::UnknownEmulator(_))));
    match &answers[3] {
        Ok(Response::Catalog(CatalogAnswer::Emulators(list))) => {
            assert_eq!(list.len(), 1);
            assert_eq!(list[0].parameter_bytes, snap.payload.len());
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(values(&answers[4]), &field[3 * VPS..20 * VPS]);
}

/// Requests over the value budget are bad requests, refused before
/// anything is allocated: an `Emulate` run at the first step count past
/// the budget and at one whose size overflows, an `Ensemble` whose runs
/// fit one by one but not together, and a one-value window of an
/// ensemble whose run alone is past the budget. Checked in process and
/// over one loopback connection, which then goes on serving.
#[test]
fn requests_over_the_value_budget_are_bad_requests() {
    let past = MAX_PRODUCT_VALUES / emulator().npoints() as u64 + 1;
    let emulate = |t_max: u64| Request::Emulate {
        emulator: EMULATOR.to_string(),
        t_max: t_max as usize,
        seed: 1,
    };
    let oversized = [
        emulate(past),
        emulate(1 << 40),
        Request::Ensemble(spec(1, past / 2, 4)),
        Request::Product(ProductDescriptor {
            source: ProductSource::Ensemble(spec(1, past, 1)),
            stat: ProductStat::Raw,
            time: Some(0..1),
            space: Some(0..1),
        }),
    ];
    let (server, handle) = spawn_fixture(NetConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    for answers in [
        server.handle_batch(&oversized),
        client.batch(&oversized).unwrap(),
    ] {
        for (request, answer) in oversized.iter().zip(&answers) {
            assert!(
                matches!(answer, Err(ServeError::BadRequest(_))),
                "{request:?}: {answer:?}"
            );
        }
    }
    let next = [emulate(8), slice("t2m", 0..10)];
    let served = client.batch(&next).unwrap();
    assert!(served.iter().all(Result::is_ok), "{served:?}");
    assert_eq!(served, server.handle_batch(&next));
    handle.shutdown();
}

/// Eight threads release on a barrier into the same product descriptor:
/// the single-flight reservation must hold the computation at exactly
/// one, every thread must get the identical answer, and the losers must
/// have either coalesced onto the leader's flight or hit the cache.
#[test]
fn stampeded_product_computes_exactly_once() {
    const THREADS: usize = 8;
    let server = fixture_server();
    let descriptor = ProductDescriptor {
        source: ProductSource::Ensemble(spec(9, 40, 4)),
        stat: ProductStat::MeanStd,
        time: None,
        space: None,
    };
    let barrier = Barrier::new(THREADS);
    let answers: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let server = &server;
                let barrier = &barrier;
                let descriptor = descriptor.clone();
                scope.spawn(move || {
                    barrier.wait();
                    server
                        .handle(&Request::Product(descriptor))
                        .expect("product evaluates")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for answer in &answers[1..] {
        assert_eq!(answer, &answers[0], "stampede answers diverged");
    }

    let stats = server.stats();
    assert_eq!(stats.products, THREADS as u64);
    assert_eq!(
        stats.product_computes, 1,
        "stampede must compute the product exactly once"
    );
    let cache = server.product_cache_stats();
    assert_eq!(cache.flight_leads, 1);
    assert_eq!(
        cache.flight_waits + cache.hits,
        (THREADS - 1) as u64,
        "every non-leader must have coalesced or hit the cache: {cache:?}"
    );
}

/// The ensemble block is exactly `realizations` independent emulator
/// runs with the published per-realization seed schedule — so a client
/// can reproduce (or shard) any member of the ensemble with plain
/// `Request::Emulate` calls.
#[test]
fn ensemble_equals_per_realization_emulation() {
    let server = fixture_server();
    let (t_max, base_seed, realizations) = (32u64, 77u64, 3u32);
    let ensemble = product(
        &server,
        Request::Ensemble(spec(base_seed, t_max, realizations)),
    );
    assert_eq!(ensemble.realizations, realizations);
    assert_eq!(ensemble.rows, t_max);

    let seeds: Vec<u64> = (0..realizations)
        .map(|k| realization_seed(base_seed, k))
        .collect();
    assert!(
        seeds.windows(2).all(|w| w[0] != w[1]),
        "seed schedule must decorrelate realizations: {seeds:?}"
    );
    for (k, seed) in seeds.iter().enumerate() {
        let Ok(Response::Emulate(ds)) = server.handle(&Request::Emulate {
            emulator: EMULATOR.to_string(),
            t_max: t_max as usize,
            seed: *seed,
        }) else {
            panic!("emulate failed");
        };
        assert_eq!(
            ensemble.realization(k as u32),
            &ds.data[..],
            "realization {k} diverged from its direct emulation"
        );
    }
}

/// Semantic spot-checks pinning the statistics to ground truth: raw
/// re-slicing matches the slice path value-for-value, a member's anomaly
/// against itself is identically zero, and mean/std match a direct
/// reduction of the served values.
#[test]
fn derived_statistics_match_ground_truth() {
    let server = fixture_server();

    // Raw with a time and space window == the windowed slice response.
    let (time, space) = (7..29u64, 3..9u64);
    let slice = slice_values(&server, time.clone());
    let raw = product(
        &server,
        Request::Product(ProductDescriptor {
            time: Some(time.clone()),
            space: Some(space.clone()),
            ..member_product("t2m", ProductStat::Raw)
        }),
    );
    let s_len = (space.end - space.start) as usize;
    assert_eq!(raw.rows, time.end - time.start);
    assert_eq!(raw.values_per_row, s_len as u64);
    for (t, row) in raw.values.chunks_exact(s_len).enumerate() {
        let full = &slice[t * VPS..(t + 1) * VPS];
        assert_eq!(row, &full[space.start as usize..space.end as usize]);
    }

    // Self-anomaly is identically zero.
    let stat = ProductStat::Anomaly {
        archive: ARCHIVE.to_string(),
        member: "t2m".to_string(),
    };
    let anomaly = product(&server, Request::Product(member_product("t2m", stat)));
    assert!(anomaly.values.iter().all(|v| *v == 0.0));

    // Mean/std agree with a direct per-location reduction of the raw data.
    let ms = product(
        &server,
        Request::Product(member_product("t2m", ProductStat::MeanStd)),
    );
    assert_eq!((ms.rows, ms.values_per_row), (2, VPS as u64));
    let full = slice_values(&server, 0..T_MAX);
    let series =
        |j: usize| -> Vec<f64> { (0..T_MAX as usize).map(|t| full[t * VPS + j]).collect() };
    for j in 0..VPS {
        let samples = series(j);
        let mean = exaclim_mathkit::stats::mean(&samples);
        let std = exaclim_mathkit::stats::variance(&samples).sqrt();
        assert_eq!(ms.row(0, 0)[j], mean, "mean at location {j}");
        assert_eq!(ms.row(0, 1)[j], std, "std at location {j}");
    }

    // The trend product's one shared plan gives, bit for bit, what a
    // per-location `fit_location` under the protocol's fixed regression
    // (2 harmonic pairs, ρ ∈ {0, 0.4, 0.8}) gives.
    let trend = product(
        &server,
        Request::Product(member_product("t2m", ProductStat::Trend)),
    );
    assert_eq!((trend.rows, trend.values_per_row), (5, VPS as u64));
    let cfg = TrendConfig {
        k_harmonics: 2,
        tau: 365,
        rho_grid: vec![0.0, 0.4, 0.8],
        start_year: 2000,
    };
    let forcing = ForcingSeries::historical_like(2000, cfg.year_of(T_MAX as usize), 30);
    for j in 0..VPS {
        let fit = fit_location(&series(j), &cfg, &forcing);
        let want = [fit.beta0, fit.beta1, fit.beta2, fit.rho, fit.sigma];
        for (plane, w) in want.iter().enumerate() {
            assert_eq!(
                trend.row(0, plane as u64)[j].to_bits(),
                w.to_bits(),
                "trend plane {plane} at location {j}"
            );
        }
    }
}
