//! Concurrent-serving correctness: many threads hammering one server must
//! observe exactly the bytes a sequential `Archive` read returns,
//! regardless of cache pressure, batch shape, or request interleaving.
//! Every byte-source backend, concurrently, answers like the oracle: the
//! conformance table's in-process rows.

mod common;

use common::conformance::Front;
use common::*;
use exaclim_serve::{Catalog, Request, Response, ServeConfig, Server};
use exaclim_store::{Archive, Codec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

/// In-memory bytes, a mapped file, a buffered file and a raw stream,
/// each with the cache at its default and off, answer the seeded
/// workload from 4 threads exactly as the oracle does.
#[test]
fn all_byte_source_backends_serve_identical_values() {
    conformance::run(|row| matches!(row.front, Front::InProcess));
}

/// Mixed batches (slices, emulations, catalog queries, products and
/// their error paths) served from 4 threads at once over in-memory
/// bytes, cached and not, are answered the same every time.
#[test]
fn mixed_concurrent_workload_is_deterministic() {
    conformance::run(|row| matches!(row.front, Front::InProcess) && row.backend == "bytes");
}

fn build(codec: Codec) -> Vec<u8> {
    build_archive(VPS, T_MAX, CHUNK_T, [codec; 2])
}

fn server_over(bytes: Vec<u8>, cache_bytes: usize, cache_shards: usize) -> Server {
    let mut catalog = Catalog::new();
    catalog.open_archive_bytes(ARCHIVE, bytes).unwrap();
    Server::new(
        catalog,
        ServeConfig {
            cache_bytes,
            cache_shards,
            ..ServeConfig::default()
        },
    )
}

/// Reference values for every request, read sequentially with a fresh
/// stream-backed `Archive` per thread — the ground truth the server must
/// match.
fn expect_slice(bytes: &[u8], member: &str, range: std::ops::Range<u64>) -> Vec<f64> {
    let r = Archive::from_reader(Cursor::new(bytes.to_vec())).unwrap();
    r.read_field_slices(member, range).unwrap()
}

/// Many client threads × overlapping random slices, generous cache: every
/// response must be bit-identical to a sequential read.
#[test]
fn concurrent_overlapping_slices_are_bit_identical() {
    for codec in [Codec::F32Shuffle, Codec::Raw64] {
        let bytes = build(codec);
        let server = server_over(bytes.clone(), 8 << 20, 4);
        let checked = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for thread in 0..8u64 {
                let server = &server;
                let bytes = &bytes;
                let checked = &checked;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 + thread);
                    for _ in 0..20 {
                        let batch: Vec<Request> = (0..6)
                            .map(|_| {
                                let member = if rng.gen_bool(0.5) { "t2m" } else { "u10" };
                                let t0 = rng.gen_range(0..T_MAX - 10);
                                let t1 = rng.gen_range(t0..=T_MAX);
                                slice(member, t0..t1)
                            })
                            .collect();
                        for (request, response) in batch.iter().zip(server.handle_batch(&batch)) {
                            let Request::Slice(req) = request else {
                                unreachable!()
                            };
                            let Ok(Response::Slice(got)) = response else {
                                panic!("slice {req:?} failed");
                            };
                            let want = expect_slice(bytes, &req.member, req.range.clone());
                            assert_eq!(got.values, want, "{} {req:?}", codec.label());
                            checked.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(checked.load(Ordering::Relaxed), 8 * 20 * 6);
        // The workload overlapped: the cache must have been exercised.
        let cache = server.cache_stats();
        assert!(cache.hits > 0, "overlapping workload should hit the cache");
    }
}

/// A cache budget of ~2 chunks forces constant eviction under concurrent
/// load; responses must still be bit-identical — never stale, never torn.
#[test]
fn tiny_cache_budget_never_serves_stale_or_torn_chunks() {
    let bytes = build(Codec::F16Shuffle);
    let chunk_bytes = CHUNK_T * VPS * 8; // decoded chunk cost in cache
                                         // One shard: the whole budget is one LRU holding ~2 chunks.
    let server = server_over(bytes.clone(), 2 * chunk_bytes, 1);
    std::thread::scope(|scope| {
        for thread in 0..6u64 {
            let server = &server;
            let bytes = &bytes;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(77 + thread);
                for _ in 0..30 {
                    let member = if rng.gen_bool(0.5) { "t2m" } else { "u10" };
                    let t0 = rng.gen_range(0..T_MAX - 20);
                    let range = t0..t0 + 20;
                    let responses = server.handle_batch(&[slice(member, range.clone())]);
                    let Ok(Response::Slice(got)) = &responses[0] else {
                        panic!("slice failed");
                    };
                    assert_eq!(got.values, expect_slice(bytes, member, range));
                }
            });
        }
    });
    let cache = server.cache_stats();
    assert!(cache.evictions > 0, "tiny budget must evict: {cache:?}");
    assert!(
        cache.resident_bytes <= 2 * chunk_bytes as u64,
        "budget respected: {cache:?}"
    );
}

/// One batch whose requests pile onto the same chunks: the batcher must
/// coalesce the fetches and still answer each request exactly.
#[test]
fn coalesced_batch_answers_match_and_dedupe() {
    let bytes = build(Codec::F32);
    let server = server_over(bytes.clone(), 0, 1); // no cache: count raw fetches
    let batch: Vec<Request> = (0..24)
        .map(|i| slice("t2m", (i % 3)..(i % 3) + 14))
        .collect();
    for (request, response) in batch.iter().zip(server.handle_batch(&batch)) {
        let Request::Slice(req) = request else {
            unreachable!()
        };
        let Ok(Response::Slice(got)) = response else {
            panic!("slice failed")
        };
        assert_eq!(got.values, expect_slice(&bytes, "t2m", req.range.clone()));
    }
    let stats = server.stats();
    assert_eq!(stats.chunk_fetches, 2, "ranges 0..16 span chunks 0 and 1");
    // 24 × (0..14, 1..15, 2..16 → 2 chunks each).
    assert_eq!(stats.chunk_touches, 24 * 2);
}

/// A cross-batch stampede on hot chunks: 8 threads fire the same batch
/// simultaneously on a cold server. The single-flight reservation map
/// must collapse all racing misses so each distinct chunk is decoded
/// **exactly once**, and every response stays bit-identical.
#[test]
fn hot_chunk_stampede_decodes_each_chunk_exactly_once() {
    let bytes = build(Codec::F32Shuffle);
    let server = server_over(bytes.clone(), 32 << 20, 4);
    let range = 0..21u64; // chunks 0, 1, 2 of t2m (chunk_t = 9)
    let unique_chunks = 3;
    let barrier = std::sync::Barrier::new(8);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let server = &server;
            let bytes = &bytes;
            let barrier = &barrier;
            let range = range.clone();
            scope.spawn(move || {
                barrier.wait();
                // Separate batches (not one coalesced batch): only the
                // cache's reservation map can dedup across them.
                let responses = server.handle_batch(&[slice("t2m", range.clone())]);
                let Ok(Response::Slice(got)) = &responses[0] else {
                    panic!("slice failed");
                };
                assert_eq!(got.values, expect_slice(bytes, "t2m", range));
            });
        }
    });
    let stats = server.stats();
    assert_eq!(
        stats.chunk_decodes, unique_chunks,
        "stampede must decode each hot chunk exactly once: {stats:?}"
    );
    let cache = server.cache_stats();
    assert_eq!(
        cache.flight_leads, unique_chunks,
        "one leader per distinct chunk: {cache:?}"
    );
    // Whatever didn't lead either waited on a flight or arrived late
    // enough to hit the cache; nothing decoded twice.
    assert_eq!(
        cache.hits + cache.flight_waits + cache.flight_leads,
        8 * unique_chunks,
        "{cache:?}"
    );
}

/// Served values are decoded copies (`Arc<[f64]>`): they must stay valid
/// after the catalog — and with it any memory mapping — is gone. Borrowed
/// chunk views themselves cannot outlive the catalog at all (the borrow
/// checker ties their lifetime to it), so dropping the server is the
/// strongest unmap-safety exercise expressible.
#[test]
fn responses_outlive_the_unmapped_catalog() {
    let bytes = build(Codec::Raw64);
    let file = TempArchive::new("unmap_safety", &bytes);
    let mut catalog = Catalog::new();
    catalog.open_archive_file(ARCHIVE, &file.0).unwrap();
    let server = Server::new(catalog, ServeConfig::default());
    let responses = server.handle_batch(&[slice("t2m", 3..40), slice("u10", 0..T_MAX)]);
    let values: Vec<Vec<f64>> = responses
        .into_iter()
        .map(|r| {
            let Ok(Response::Slice(s)) = r else { panic!() };
            s.values
        })
        .collect();
    drop(server); // drops the catalog, unmapping the file
    drop(file);
    assert_eq!(values[0], expect_slice(&bytes, "t2m", 3..40));
    assert_eq!(values[1], expect_slice(&bytes, "u10", 0..T_MAX));
}
