//! Concurrent-serving correctness: many threads hammering one server must
//! observe exactly the bytes a sequential `Archive` read returns —
//! regardless of cache pressure, batch shape, or request interleaving.

use exaclim_serve::{
    Catalog, CatalogAnswer, CatalogQuery, Request, Response, ServeConfig, Server, SliceRequest,
};
use exaclim_store::{Archive, ArchiveWriter, Codec, FieldMeta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

const VPS: usize = 12;
const T_MAX: u64 = 96;
const CHUNK_T: usize = 7;

/// Two-member archive with incommensurate chunking on the second member.
fn build_archive(codec: Codec) -> Vec<u8> {
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
    for (name, phase) in [("t2m", 0.0), ("u10", 1.7)] {
        let data: Vec<f64> = (0..VPS * T_MAX as usize)
            .map(|i| 250.0 + 40.0 * (i as f64 * 0.011 + phase).sin())
            .collect();
        w.add_field(name, codec, FieldMeta::default(), VPS, CHUNK_T, &data)
            .unwrap();
    }
    w.finish().unwrap().0.into_inner()
}

fn server_over(bytes: Vec<u8>, cache_bytes: usize, cache_shards: usize) -> Server {
    let mut catalog = Catalog::new();
    catalog.open_archive_bytes("a", bytes).unwrap();
    Server::new(
        catalog,
        ServeConfig {
            cache_bytes,
            cache_shards,
            ..ServeConfig::default()
        },
    )
}

fn slice(member: &str, range: std::ops::Range<u64>) -> Request {
    Request::Slice(SliceRequest {
        archive: "a".to_string(),
        member: member.to_string(),
        range,
    })
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
        let bytes = build_archive(codec);
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
    let bytes = build_archive(Codec::F16Shuffle);
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
    let bytes = build_archive(Codec::F32);
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
    assert_eq!(stats.chunk_fetches, 3, "ranges 0..16 span chunks 0, 1, 2");
    // 8 × (0..14 → 2 chunks) + 16 × (1..15, 2..16 → 3 chunks each).
    assert_eq!(stats.chunk_touches, 8 * 2 + 16 * 3);
}

/// A cross-batch stampede on hot chunks: 8 threads fire the same batch
/// simultaneously on a cold server. The single-flight reservation map
/// must collapse all racing misses so each distinct chunk is decoded
/// **exactly once**, and every response stays bit-identical.
#[test]
fn hot_chunk_stampede_decodes_each_chunk_exactly_once() {
    let bytes = build_archive(Codec::F32Shuffle);
    let server = server_over(bytes.clone(), 32 << 20, 4);
    let range = 0..21u64; // chunks 0, 1, 2 of t2m (chunk_t = 7)
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

/// The same concurrent workload served from every byte-source backend —
/// in-memory (zero-copy), mmap'd file, buffered file (mutex fallback),
/// and a raw stream — must be bit-identical to sequential reads.
#[test]
fn all_byte_source_backends_serve_identical_values() {
    let bytes = build_archive(Codec::F16Shuffle);
    let path = std::env::temp_dir().join(format!(
        "exaclim_serve_backends_{}.eca1",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();

    let mut servers: Vec<(&str, Server)> = Vec::new();
    let mut mem = Catalog::new();
    mem.open_archive_bytes("a", bytes.clone()).unwrap();
    servers.push(("bytes", Server::new(mem, ServeConfig::default())));
    let mut stream = Catalog::new();
    stream
        .open_archive("a", Cursor::new(bytes.clone()))
        .unwrap();
    servers.push(("stream", Server::new(stream, ServeConfig::default())));
    let mut mapped = Catalog::new();
    mapped
        .open_archive_source("a", exaclim_store::open_file_source(&path, true).unwrap())
        .unwrap();
    servers.push((
        "mmap-or-fallback",
        Server::new(mapped, ServeConfig::default()),
    ));
    let mut buffered = Catalog::new();
    buffered
        .open_archive_source("a", exaclim_store::open_file_source(&path, false).unwrap())
        .unwrap();
    servers.push((
        "buffered-file",
        Server::new(buffered, ServeConfig::default()),
    ));

    for (label, server) in &servers {
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let bytes = &bytes;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(500 + thread);
                    for _ in 0..10 {
                        let member = if rng.gen_bool(0.5) { "t2m" } else { "u10" };
                        let t0 = rng.gen_range(0..T_MAX - 12);
                        let range = t0..t0 + 12;
                        let responses = server.handle_batch(&[slice(member, range.clone())]);
                        let Ok(Response::Slice(got)) = &responses[0] else {
                            panic!("slice failed on backend {label}");
                        };
                        assert_eq!(
                            got.values,
                            expect_slice(bytes, member, range),
                            "backend {label}"
                        );
                    }
                });
            }
        });
        assert_eq!(server.stats().errors, 0, "backend {label}");
    }
    drop(servers);
    std::fs::remove_file(&path).ok();
}

/// Served values are decoded copies (`Arc<[f64]>`): they must stay valid
/// after the catalog — and with it any memory mapping — is gone. Borrowed
/// chunk views themselves cannot outlive the catalog at all (the borrow
/// checker ties their lifetime to it), so dropping the server is the
/// strongest unmap-safety exercise expressible.
#[test]
fn responses_outlive_the_unmapped_catalog() {
    let bytes = build_archive(Codec::Raw64);
    let path =
        std::env::temp_dir().join(format!("exaclim_unmap_safety_{}.eca1", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let mut catalog = Catalog::new();
    catalog
        .open_archive_source("a", exaclim_store::open_file_source(&path, true).unwrap())
        .unwrap();
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
    std::fs::remove_file(&path).ok();
    assert_eq!(values[0], expect_slice(&bytes, "t2m", 3..40));
    assert_eq!(values[1], expect_slice(&bytes, "u10", 0..T_MAX));
}

/// Emulation and metadata served concurrently with slices stay correct
/// and deterministic.
#[test]
fn mixed_concurrent_workload_is_deterministic() {
    use exaclim::{ClimateEmulator, EmulatorConfig};
    use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};

    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    let training = generator.generate_member(0, 2 * 365);
    let emulator = ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap();
    let reference = emulator.emulate(25, 42).unwrap();

    let bytes = build_archive(Codec::Raw64);
    let mut catalog = Catalog::new();
    catalog.open_archive_bytes("a", bytes.clone()).unwrap();
    catalog.register_emulator("em", emulator).unwrap();
    let server = Server::new(catalog, ServeConfig::default());

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let server = &server;
            let bytes = &bytes;
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..10u64 {
                    let batch = vec![
                        slice("t2m", round..round + 30),
                        Request::Emulate {
                            emulator: "em".to_string(),
                            t_max: 25,
                            seed: 42,
                        },
                        Request::Catalog(CatalogQuery::MemberInfo {
                            archive: "a".to_string(),
                            member: "u10".to_string(),
                        }),
                    ];
                    let responses = server.handle_batch(&batch);
                    let Ok(Response::Slice(got)) = &responses[0] else {
                        panic!()
                    };
                    assert_eq!(got.values, expect_slice(bytes, "t2m", round..round + 30));
                    let Ok(Response::Emulate(ds)) = &responses[1] else {
                        panic!()
                    };
                    assert_eq!(
                        ds.data, reference.data,
                        "served emulation must be bit-identical per seed"
                    );
                    let Ok(Response::Catalog(CatalogAnswer::Member(info))) = &responses[2] else {
                        panic!()
                    };
                    assert_eq!((info.t_max, info.values_per_slice), (T_MAX, VPS as u64));
                }
            });
        }
    });
    assert_eq!(server.stats().errors, 0);
}
