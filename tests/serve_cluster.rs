//! The sharded cluster: a `Router` over 1 or 4 shards, called directly or
//! through a wire front end, and after a seeded shard kill, answers like
//! one in-process server (the conformance table's router rows), and
//! `Request::Stats` fans out to every shard and sums their counters. The
//! ring's placement skew is a `router` unit test.

mod common;

use common::conformance::Front;
use common::*;
use exaclim_serve::{Request, Response, Router, RouterConfig, ServeError};

/// Routed and fanned-out batches over 1 and 4 shards, direct and behind
/// `NetServer::bind_router`, answer exactly as one in-process server.
#[test]
fn router_matches_single_server_bit_identically() {
    conformance::run(|row| matches!(row.front, Front::Router { .. }));
}

/// With replication 2, killing a seeded shard fails its keys over to
/// their replicas and every answer stays the oracle's.
#[test]
fn shard_kill_failover_stays_bit_identical() {
    conformance::run(|row| matches!(row.front, Front::ShardKill(_)));
}

/// `Request::Stats` fans out: the router answers the field-wise sum of
/// every live shard's counters, which must account for every slice the
/// cluster served.
#[test]
fn stats_fan_out_sums_shard_counters() {
    let (handles, specs) = spawn_cluster(4);
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
    assert_eq!(expired, Err(ServeError::DeadlineExpired));
    for h in handles {
        h.shutdown();
    }
}
