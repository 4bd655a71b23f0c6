//! Sharded-cluster correctness: a consistent-hash [`Router`] over N
//! backend shards must be a transparent front end. Every response —
//! successes, typed per-request errors, deadline verdicts — must be
//! bit-identical to a single in-process `Server` over the same catalog,
//! and must *stay* bit-identical when a shard is killed mid-workload
//! (seeded victim) and its keys fail over to their replicas. The ring's
//! placement skew is pinned next to the ring, in `router`'s unit tests.

use exaclim::{ClimateEmulator, EmulatorConfig};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_serve::{
    Catalog, CatalogQuery, Client, NetConfig, NetServer, NetServerHandle, ProductDescriptor,
    ProductSource, ProductStat, Request, Response, Router, RouterConfig, ScenarioSpec, ServeConfig,
    Server, SliceRequest,
};
use exaclim_store::{ArchiveWriter, Codec, FieldMeta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;
use std::sync::Arc;

const VPS: usize = 10;
const T_MAX: u64 = 64;
const CHUNK_T: usize = 9;

/// Two same-shaped members with real time metadata so trend and anomaly
/// products are well-posed (same archive as the scenario suite).
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

/// The full catalog every shard (and the reference server) opens: the
/// data plane is replicated, the ring partitions cache affinity.
fn full_catalog(emulator: &exaclim::TrainedEmulator) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.open_archive_bytes("a", archive_bytes()).unwrap();
    catalog.register_emulator("em", emulator.clone()).unwrap();
    catalog
}

/// N identical backend shards on loopback plus the in-process reference.
fn spawn_cluster(shards: usize) -> (Server, Vec<NetServerHandle>, Vec<exaclim_serve::ShardSpec>) {
    let emulator = train_emulator();
    let reference = Server::new(full_catalog(&emulator), ServeConfig::default());
    let handles: Vec<NetServerHandle> = (0..shards)
        .map(|_| {
            let server = Arc::new(Server::new(full_catalog(&emulator), ServeConfig::default()));
            NetServer::bind("127.0.0.1:0", server, NetConfig::default())
                .unwrap()
                .spawn()
        })
        .collect();
    let specs = handles
        .iter()
        .enumerate()
        .map(|(i, h)| exaclim_serve::ShardSpec::numbered(i, h.addr()))
        .collect();
    (reference, handles, specs)
}

fn slice(member: &str, range: std::ops::Range<u64>) -> Request {
    Request::Slice(SliceRequest {
        archive: "a".to_string(),
        member: member.to_string(),
        range,
    })
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

/// Every op type with deterministic answers: slices (good and bad),
/// emulation (good and unknown), all four catalog queries, derived
/// products over members and ensembles, ensemble sugar, and both
/// deadline verdicts (a generous budget passes, a zero budget is always
/// [`exaclim_serve::ServeError::DeadlineExpired`]).
fn full_workload(seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::new();
    for _ in 0..6 {
        let member = if rng.gen_bool(0.5) { "t2m" } else { "u10" };
        let t0 = rng.gen_range(0..T_MAX - 5);
        let t1 = rng.gen_range(t0..=T_MAX);
        batch.push(slice(member, t0..t1));
    }
    batch.push(Request::Emulate {
        emulator: "em".to_string(),
        t_max: 12,
        seed,
    });
    batch.push(Request::Catalog(CatalogQuery::ListArchives));
    batch.push(Request::Catalog(CatalogQuery::ListMembers {
        archive: "a".to_string(),
    }));
    batch.push(Request::Catalog(CatalogQuery::MemberInfo {
        archive: "a".to_string(),
        member: "u10".to_string(),
    }));
    batch.push(Request::Catalog(CatalogQuery::ListEmulators));
    batch.push(Request::Product(member_product(
        "t2m",
        ProductStat::MeanStd,
    )));
    batch.push(Request::Product(member_product(
        "u10",
        ProductStat::Anomaly {
            archive: "a".to_string(),
            member: "t2m".to_string(),
        },
    )));
    batch.push(Request::Product(ProductDescriptor {
        source: ProductSource::Ensemble(spec(seed, 40, 3)),
        stat: ProductStat::TukeyExtremes { tail_per_mille: 25 },
        time: None,
        space: None,
    }));
    batch.push(Request::Ensemble(spec(seed + 1, 32, 2)));
    batch.push(Request::WithDeadline {
        budget_ms: 60_000,
        request: Box::new(slice("t2m", 0..T_MAX)),
    });
    batch.push(Request::WithDeadline {
        budget_ms: 0,
        request: Box::new(slice("u10", 0..4)),
    });
    // Deterministic failures route and reassemble like successes.
    batch.push(slice("missing", 0..1));
    batch.push(slice("t2m", 10..9999));
    batch.push(Request::Emulate {
        emulator: "nope".to_string(),
        t_max: 5,
        seed: 1,
    });
    batch
}

/// 4 shards behind a router vs one in-process server: every op type,
/// bit-identical — and again through a router-backed `NetServer` front
/// end over a real client socket.
#[test]
fn router_matches_single_server_bit_identically() {
    let (reference, handles, specs) = spawn_cluster(4);
    let router = Arc::new(Router::connect(specs, RouterConfig::default()).unwrap());

    for round in 0..3u64 {
        let batch = full_workload(1000 + round);
        assert_eq!(
            router.handle_batch(&batch),
            reference.handle_batch(&batch),
            "round {round}"
        );
    }

    // The same equivalence through the wire front end: clients of a
    // router-backed NetServer cannot tell it from a single server.
    let front = NetServer::bind_router("127.0.0.1:0", Arc::clone(&router), NetConfig::default())
        .unwrap()
        .spawn();
    let mut client = Client::connect(front.addr()).unwrap();
    let batch = full_workload(2000);
    assert_eq!(
        client.batch(&batch).unwrap(),
        reference.handle_batch(&batch),
        "via front end"
    );
    let stats = router.router_stats();
    assert!(stats.routed >= 4 * full_workload(0).len() as u64);
    assert!(
        stats.fanout_batches >= 1,
        "a full workload must split across shards: {stats:?}"
    );
    drop(client);
    front.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// Kill one shard (seeded victim) mid-workload: with replication 2 the
/// dead shard's keys fail over to their replicas and every response —
/// including the batches racing the kill — stays bit-identical. The
/// router records the failover.
#[test]
fn shard_kill_failover_stays_bit_identical() {
    let kill_seed: u64 = std::env::var("EXACLIM_CLUSTER_KILL_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xDEAD);
    let (reference, mut handles, specs) = spawn_cluster(4);
    let router = Router::connect(specs, RouterConfig::default()).unwrap();

    // Warm: all four shards answer.
    let warm = full_workload(kill_seed);
    assert_eq!(router.handle_batch(&warm), reference.handle_batch(&warm));

    // Seeded victim, then the same workload shapes again.
    let victim = (kill_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        % handles.len() as u64) as usize;
    handles.remove(victim).shutdown();

    for round in 0..3u64 {
        let batch = full_workload(kill_seed + round);
        assert_eq!(
            router.handle_batch(&batch),
            reference.handle_batch(&batch),
            "round {round} after killing shard {victim}"
        );
    }
    let stats = router.router_stats();
    assert!(
        stats.failovers >= 1,
        "killing shard {victim} must record a failover: {stats:?}"
    );
    let down = router.shard_health().iter().filter(|h| !h.alive).count();
    assert!(down >= 1, "the victim must be marked down");
    for h in handles {
        h.shutdown();
    }
}

/// `Request::Stats` fans out: the router answers the field-wise sum of
/// every live shard's counters, which must account for every slice the
/// cluster served.
#[test]
fn stats_fan_out_sums_shard_counters() {
    let (_, handles, specs) = spawn_cluster(4);
    let router = Router::connect(specs, RouterConfig::default()).unwrap();

    let slices: Vec<Request> = (0..16).map(|i| slice("t2m", i..i + 4)).collect();
    assert!(router.handle_batch(&slices).iter().all(|r| r.is_ok()));

    match router.handle(&Request::Stats).unwrap() {
        Response::Stats(sum) => {
            assert_eq!(sum.slices, 16, "cluster-wide slice count: {sum:?}");
            assert_eq!(sum.errors, 0);
            assert!(sum.batches >= 1);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    // A deadline-wrapped stats probe with zero budget expires on every
    // shard and the router surfaces the error, not a partial sum.
    let expired = router.handle(&Request::WithDeadline {
        budget_ms: 0,
        request: Box::new(Request::Stats),
    });
    assert_eq!(expired, Err(exaclim_serve::ServeError::DeadlineExpired));
    for h in handles {
        h.shutdown();
    }
}
