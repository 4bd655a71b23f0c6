//! Scenario-engine correctness: derived products served over the wire
//! must be bit-identical to in-process `Server::handle_batch` answers —
//! errors included — on both byte-source backends and at any
//! `EXACLIM_THREADS` (the CI matrix runs this suite under several legs);
//! a stampede on one product descriptor must compute it exactly once;
//! and ensemble fan-out must equal per-realization emulation with the
//! published decorrelated seeds.

use exaclim::{ClimateEmulator, EmulatorConfig};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_serve::scenario::realization_seed;
use exaclim_serve::{
    Catalog, Client, NetConfig, NetServer, ProductDescriptor, ProductSource, ProductStat, Request,
    Response, ScenarioSpec, ServeConfig, Server, SliceRequest,
};
use exaclim_stats::trend::{fit_location, TrendConfig};
use exaclim_stats::ForcingSeries;
use exaclim_store::{open_file_source, ArchiveWriter, Codec, FieldMeta};
use std::io::Cursor;
use std::sync::{Arc, Barrier};

const VPS: usize = 10;
const T_MAX: u64 = 64;
const CHUNK_T: usize = 9;

/// Two same-shaped field members (so one can baseline the other), with
/// real time metadata (`tau`, `start_year`) so trend products are
/// well-posed over the archive too.
fn archive_bytes() -> Vec<u8> {
    let meta = FieldMeta {
        ntheta: 2,
        nphi: 5,
        start_year: 2000,
        tau: 365,
    };
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
    for (name, phase, codec) in [("t2m", 0.0, Codec::F32Shuffle), ("u10", 2.3, Codec::Raw64)] {
        let data: Vec<f64> = (0..VPS * T_MAX as usize)
            .map(|i| 260.0 + 25.0 * (i as f64 * 0.017 + phase).sin())
            .collect();
        w.add_field(name, codec, meta, VPS, CHUNK_T, &data).unwrap();
    }
    w.finish().unwrap().0.into_inner()
}

fn train_emulator() -> exaclim::TrainedEmulator {
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    let training = generator.generate_member(0, 2 * 365);
    ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap()
}

fn server_over(bytes: Vec<u8>) -> Server {
    let mut catalog = Catalog::new();
    catalog.open_archive_bytes("a", bytes).unwrap();
    catalog.register_emulator("em", train_emulator()).unwrap();
    Server::new(catalog, ServeConfig::default())
}

fn spec(seed: u64, t_max: u64, realizations: u32) -> ScenarioSpec {
    ScenarioSpec {
        emulator: "em".to_string(),
        t_max,
        seed,
        realizations,
    }
}

fn member_product(member: &str, stat: ProductStat) -> ProductDescriptor {
    ProductDescriptor {
        source: ProductSource::Member {
            archive: "a".to_string(),
            member: member.to_string(),
        },
        stat,
        time: None,
        space: None,
    }
}

/// Eight threads release on a barrier into the same product descriptor:
/// the single-flight reservation must hold the computation at exactly
/// one, every thread must get the identical answer, and the losers must
/// have either coalesced onto the leader's flight or hit the cache.
#[test]
fn stampeded_product_computes_exactly_once() {
    const THREADS: usize = 8;
    let server = server_over(archive_bytes());
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

/// Every new op — ensemble fan-out and each derived statistic, over both
/// archive members and fresh ensemble output, with and without windows,
/// plus the validation error paths — must round-trip the wire
/// bit-identically to the in-process answer, on both byte-source
/// backends.
#[test]
fn derived_products_bit_identical_network_vs_in_process() {
    let bytes = archive_bytes();
    let path = std::env::temp_dir().join(format!(
        "exaclim_serve_scenario_{}.eca1",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();

    let batch: Vec<Request> = vec![
        Request::Ensemble(spec(3, 48, 4)),
        Request::Product(member_product("t2m", ProductStat::Raw)),
        Request::Product(ProductDescriptor {
            time: Some(5..37),
            space: Some(2..8),
            ..member_product("t2m", ProductStat::Raw)
        }),
        Request::Product(member_product("t2m", ProductStat::MeanStd)),
        Request::Product(member_product(
            "t2m",
            ProductStat::Anomaly {
                archive: "a".to_string(),
                member: "u10".to_string(),
            },
        )),
        Request::Product(member_product("t2m", ProductStat::Trend)),
        Request::Product(member_product("u10", ProductStat::Persistence { order: 2 })),
        Request::Product(ProductDescriptor {
            source: ProductSource::Ensemble(spec(3, 48, 4)),
            stat: ProductStat::TukeyExtremes { tail_per_mille: 25 },
            time: None,
            space: None,
        }),
        Request::Product(ProductDescriptor {
            source: ProductSource::Ensemble(spec(3, 48, 4)),
            stat: ProductStat::Trend,
            time: Some(8..48),
            space: None,
        }),
        // Error paths travel inside the response frame, bit-identically.
        Request::Product(member_product("missing", ProductStat::Raw)),
        Request::Product(ProductDescriptor {
            source: ProductSource::Member {
                archive: "nope".to_string(),
                member: "t2m".to_string(),
            },
            stat: ProductStat::Raw,
            time: None,
            space: None,
        }),
        Request::Product(ProductDescriptor {
            time: Some(0..9999),
            ..member_product("t2m", ProductStat::Raw)
        }),
        Request::Product(member_product("t2m", ProductStat::Persistence { order: 0 })),
        Request::Product(member_product(
            "t2m",
            ProductStat::TukeyExtremes { tail_per_mille: 0 },
        )),
        Request::Ensemble(spec(1, 10, 0)),
        Request::Ensemble(ScenarioSpec {
            emulator: "nope".to_string(),
            ..spec(1, 10, 2)
        }),
    ];

    for use_mmap in [false, true] {
        let mut catalog = Catalog::new();
        catalog
            .open_archive_source("a", open_file_source(&path, use_mmap).unwrap())
            .unwrap();
        catalog.register_emulator("em", train_emulator()).unwrap();
        let server = Arc::new(Server::new(catalog, ServeConfig::default()));
        let expected = server.handle_batch(&batch);
        assert!(expected.iter().take(9).all(|r| r.is_ok()));
        assert!(expected.iter().skip(9).all(|r| r.is_err()));

        let handle = NetServer::bind("127.0.0.1:0", Arc::clone(&server), NetConfig::default())
            .unwrap()
            .spawn();
        let mut client = Client::connect(handle.addr()).unwrap();
        assert_eq!(client.batch(&batch).unwrap(), expected, "mmap={use_mmap}");
        handle.shutdown();
    }
    std::fs::remove_file(&path).ok();
}

/// The ensemble block is exactly `realizations` independent emulator
/// runs with the published per-realization seed schedule — so a client
/// can reproduce (or shard) any member of the ensemble with plain
/// `Request::Emulate` calls.
#[test]
fn ensemble_equals_per_realization_emulation() {
    let server = server_over(archive_bytes());
    let (t_max, base_seed, realizations) = (32u64, 77u64, 3u32);
    let Ok(Response::Product(ensemble)) =
        server.handle(&Request::Ensemble(spec(base_seed, t_max, realizations)))
    else {
        panic!("ensemble failed");
    };
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
            emulator: "em".to_string(),
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
    let server = server_over(archive_bytes());

    // Raw with a time and space window == the windowed slice response.
    let (time, space) = (7..29u64, 3..9u64);
    let Ok(Response::Slice(slice)) = server.handle(&Request::Slice(SliceRequest {
        archive: "a".to_string(),
        member: "t2m".to_string(),
        range: time.clone(),
    })) else {
        panic!("slice failed");
    };
    let Ok(Response::Product(raw)) = server.handle(&Request::Product(ProductDescriptor {
        time: Some(time.clone()),
        space: Some(space.clone()),
        ..member_product("t2m", ProductStat::Raw)
    })) else {
        panic!("raw product failed");
    };
    let s_len = (space.end - space.start) as usize;
    assert_eq!(raw.rows, time.end - time.start);
    assert_eq!(raw.values_per_row, s_len as u64);
    for (t, row) in raw.values.chunks_exact(s_len).enumerate() {
        let full = &slice.values[t * VPS..(t + 1) * VPS];
        assert_eq!(row, &full[space.start as usize..space.end as usize]);
    }

    // Self-anomaly is identically zero.
    let Ok(Response::Product(anomaly)) = server.handle(&Request::Product(member_product(
        "t2m",
        ProductStat::Anomaly {
            archive: "a".to_string(),
            member: "t2m".to_string(),
        },
    ))) else {
        panic!("anomaly failed");
    };
    assert!(anomaly.values.iter().all(|v| *v == 0.0));

    // Mean/std agree with a direct per-location reduction of the raw data.
    let Ok(Response::Product(ms)) = server.handle(&Request::Product(member_product(
        "t2m",
        ProductStat::MeanStd,
    ))) else {
        panic!("mean/std failed");
    };
    assert_eq!((ms.rows, ms.values_per_row), (2, VPS as u64));
    let Ok(Response::Slice(full)) = server.handle(&Request::Slice(SliceRequest {
        archive: "a".to_string(),
        member: "t2m".to_string(),
        range: 0..T_MAX,
    })) else {
        panic!("full slice failed");
    };
    for j in 0..VPS {
        let samples: Vec<f64> = (0..T_MAX as usize)
            .map(|t| full.values[t * VPS + j])
            .collect();
        let mean = exaclim_mathkit::stats::mean(&samples);
        let std = exaclim_mathkit::stats::variance(&samples).sqrt();
        assert_eq!(ms.row(0, 0)[j], mean, "mean at location {j}");
        assert_eq!(ms.row(0, 1)[j], std, "std at location {j}");
    }

    // The trend product's one shared plan gives, bit for bit, what a
    // per-location `fit_location` under the protocol's fixed regression
    // (2 harmonic pairs, ρ ∈ {0, 0.4, 0.8}) gives.
    let Ok(Response::Product(trend)) =
        server.handle(&Request::Product(member_product("t2m", ProductStat::Trend)))
    else {
        panic!("trend failed");
    };
    assert_eq!((trend.rows, trend.values_per_row), (5, VPS as u64));
    let cfg = TrendConfig {
        k_harmonics: 2,
        tau: 365,
        rho_grid: vec![0.0, 0.4, 0.8],
        start_year: 2000,
    };
    let forcing = ForcingSeries::historical_like(2000, cfg.year_of(T_MAX as usize), 30);
    for j in 0..VPS {
        let samples: Vec<f64> = (0..T_MAX as usize)
            .map(|t| full.values[t * VPS + j])
            .collect();
        let fit = fit_location(&samples, &cfg, &forcing);
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
