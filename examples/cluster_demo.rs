//! Sharded-cluster demo: a consistent-hash [`exaclim_serve::Router`]
//! fronting four backend shards, a mixed workload verified
//! bit-identical against a single in-process server, and a live shard
//! kill to show replica failover.
//!
//! ```text
//! cargo run --release --example cluster_demo
//! ```
//!
//! Flow: four `NetServer` shards open the same catalog on loopback; the
//! router builds the ring [`RouterConfig::default`] describes (virtual
//! nodes, replication, seed). Then one shard dies mid-run and the
//! workload keeps verifying: its keys fail over to their replicas,
//! bit-identically.

use exaclim::{ClimateEmulator, EmulatorConfig};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_serve::{
    Catalog, CatalogQuery, NetConfig, NetServer, Request, Router, RouterConfig, ServeConfig,
    Server, ShardSpec, SliceRequest,
};
use exaclim_store::{ArchiveWriter, Codec, FieldMeta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;
const ROUNDS: usize = 40;
const VPS: usize = 10;
const T_MAX: u64 = 96;
const CHUNK_T: usize = 12;

fn archive_bytes() -> Vec<u8> {
    let meta = FieldMeta {
        ntheta: 2,
        nphi: 5,
        start_year: 2000,
        tau: 365,
    };
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).expect("writer");
    for (name, phase, codec) in [("t2m", 0.0, Codec::F32Shuffle), ("u10", 2.3, Codec::Raw64)] {
        let data: Vec<f64> = (0..VPS * T_MAX as usize)
            .map(|i| 260.0 + 25.0 * (i as f64 * 0.017 + phase).sin())
            .collect();
        w.add_field(name, codec, meta, VPS, CHUNK_T, &data)
            .expect("field");
    }
    w.finish().expect("finish").0.into_inner()
}

fn catalog(emulator: &exaclim::TrainedEmulator) -> Catalog {
    let mut c = Catalog::new();
    c.open_archive_bytes("a", archive_bytes()).expect("archive");
    c.register_emulator("em", emulator.clone())
        .expect("emulator");
    c
}

fn workload(seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::new();
    for _ in 0..8 {
        let member = if rng.gen_bool(0.5) { "t2m" } else { "u10" };
        let t0 = rng.gen_range(0..T_MAX - 8);
        let t1 = rng.gen_range(t0 + 1..=T_MAX);
        batch.push(Request::Slice(SliceRequest {
            archive: "a".to_string(),
            member: member.to_string(),
            range: t0..t1,
        }));
    }
    batch.push(Request::Emulate {
        emulator: "em".to_string(),
        t_max: 10,
        seed,
    });
    batch.push(Request::Catalog(CatalogQuery::ListMembers {
        archive: "a".to_string(),
    }));
    batch
}

fn main() {
    println!("training a small emulator…");
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    let training = generator.generate_member(0, 2 * 365);
    let emulator = ClimateEmulator::train(&training, EmulatorConfig::small(8)).expect("train");

    // --- Shards: four NetServers over the same catalog -------------------
    let reference = Server::new(catalog(&emulator), ServeConfig::default());
    let handles: Vec<_> = (0..SHARDS)
        .map(|_| {
            let server = Arc::new(Server::new(catalog(&emulator), ServeConfig::default()));
            NetServer::bind("127.0.0.1:0", server, NetConfig::default())
                .expect("bind")
                .spawn()
        })
        .collect();
    let specs: Vec<ShardSpec> = handles
        .iter()
        .enumerate()
        .map(|(i, h)| ShardSpec::numbered(i, h.addr()))
        .collect();
    for s in &specs {
        println!("shard {} at {}", s.label, s.addr);
    }

    // --- Router: the ring its config describes ---------------------------
    let config = RouterConfig::default();
    println!(
        "ring: {SHARDS} shards, {} virtual nodes each, replication {}",
        config.virtual_nodes, config.replication
    );
    let router = Router::connect(specs, config).expect("router");

    // --- Mixed workload, verified against the single server --------------
    let started = Instant::now();
    let mut requests = 0usize;
    for round in 0..ROUNDS {
        let batch = workload(round as u64);
        requests += batch.len();
        assert_eq!(
            router.handle_batch(&batch),
            reference.handle_batch(&batch),
            "round {round} diverged from the single server"
        );
    }
    println!(
        "verified {requests} requests bit-identical across {SHARDS} shards in {:?}",
        started.elapsed()
    );

    // --- Kill a shard: keys fail over to replicas, still bit-identical ---
    let mut handles = handles;
    let victim = handles.remove(1);
    println!("killing shard-1 at {}…", victim.addr());
    victim.shutdown();
    for round in 0..ROUNDS {
        let batch = workload(1_000 + round as u64);
        assert_eq!(
            router.handle_batch(&batch),
            reference.handle_batch(&batch),
            "round {round} diverged after the kill"
        );
    }
    let stats = router.router_stats();
    println!(
        "survived the kill: routed {} requests, {} fan-out batches, {} failovers",
        stats.routed, stats.fanout_batches, stats.failovers
    );
    for h in router.shard_health() {
        println!(
            "  {} {} — {}",
            h.label,
            h.addr,
            if h.alive { "alive" } else { "down" }
        );
    }
    for h in handles {
        h.shutdown();
    }
}
