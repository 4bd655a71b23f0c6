//! Chaos: under a seeded fault plan, retrying clients get exactly the
//! oracle's answers (the conformance table's chaos row); a worker panic becomes a typed
//! `ServeError::Internal` and the server survives; a flipped stored bit is
//! a typed checksum mismatch; overload shedding turns a saturated dispatch
//! backlog into typed retryable `ServeError::Overloaded` hints instead of
//! unbounded queues; and a graceful shutdown that lands mid-stream
//! surfaces as a typed `WireError::StreamTruncated`, never a hang.

mod common;

use common::*;
use exaclim_runtime::{faults, FaultAction, FaultPlan};
use exaclim_serve::{
    Catalog, Client, ClientConfig, NetConfig, RetryPolicy, ServeConfig, ServeError, Server,
    WireError,
};
use exaclim_store::{Archive, ArchiveError, Codec};
use std::sync::Arc;
use std::time::Duration;

/// Short reads, EINTR, resets, delays, decode corruption, product
/// failures and one worker panic: 8 retrying clients still receive the
/// oracle's answers, and the faults show only in the counters.
#[test]
fn chaos_workload_completes_bit_identical_under_seeded_faults() {
    conformance::run(|row| row.chaos);
}

/// Satellite: a dispatch-worker panic must become a typed
/// [`ServeError::Internal`] response on that request's connection and
/// leave the server (and the connection) serving — it must never strand
/// the requester or kill the process.
#[test]
fn worker_panic_becomes_typed_internal_error_and_server_survives() {
    let _guard = fault_guard();
    let (server, handle) = spawn_fixture(NetConfig::default());
    let batch = vec![slice("t2m", 0..12), slice("u10", 3..9)];
    let expected = server.handle_batch(&batch);

    faults::install(FaultPlan::seeded(7).rule_max("dispatch", FaultAction::Panic, 1.0, 1));
    let mut client = Client::connect(handle.addr()).unwrap();
    let poisoned = client.batch(&batch).unwrap();
    assert_eq!(poisoned.len(), batch.len());
    for reply in &poisoned {
        assert_eq!(
            reply,
            &Err(ServeError::Internal(
                "request execution panicked".to_string()
            ))
        );
    }
    // Same connection, next batch: the panic was contained.
    assert_eq!(client.batch(&batch).unwrap(), expected);
    assert!(handle.net_stats().faults_injected > 0);
    handle.shutdown();
    faults::clear();
}

/// The `decode` fault above reports corruption without computing a CRC;
/// this flips one real bit inside a stored chunk (well past 128 bytes, so
/// in the region the CRC kernel folds) and checks the served answer — in
/// process and over the wire — is the typed checksum mismatch for that
/// chunk, while the other chunks still serve.
#[test]
fn flipped_stored_bit_is_a_typed_checksum_mismatch() {
    let _guard = fault_guard();
    const T: u64 = 96;
    const CHUNK: u64 = 17;
    let mut raw = build_archive(48, T, CHUNK as usize, [Codec::F32Shuffle, Codec::Raw64]);
    let chunk = {
        let archive = Archive::from_bytes(raw.clone()).unwrap();
        let u10 = archive.members().iter().find(|m| m.name == "u10").unwrap();
        u10.chunks[1]
    };
    assert!(chunk.stored_len >= 1024, "{}", chunk.stored_len);
    raw[chunk.offset as usize + 300] ^= 0x08;
    let mut catalog = Catalog::new();
    catalog.open_archive_bytes(ARCHIVE, raw).unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let handle = spawn(&server, NetConfig::default());

    let batch = vec![slice("u10", 0..T), slice("u10", 0..CHUNK)];
    let want = Err(ServeError::Archive(ArchiveError::ChecksumMismatch {
        member: "u10".to_string(),
        chunk: 1,
    }));
    let local = server.handle_batch(&batch);
    assert_eq!(local[0], want);
    assert!(local[1].is_ok());
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.batch(&batch).unwrap(), local);
    handle.shutdown();
}

/// Acceptance: with the dispatch backlog saturated (one slow worker, a
/// backlog cap of 1), fresh requests draw typed retryable
/// [`ServeError::Overloaded`] responses instead of joining a doomed
/// queue, accepted requests still complete bit-identical, and a client
/// with a [`RetryPolicy`] rides the shedding out to a correct answer.
#[test]
fn overload_sheds_typed_retryable_errors_and_retrying_client_succeeds() {
    let _guard = fault_guard();
    let (server, handle) = spawn_fixture(NetConfig {
        dispatch_threads: 1,
        max_dispatch_backlog: 1,
        shed_retry_after_ms: 5,
        ..NetConfig::default()
    });
    let addr = handle.addr();
    let batch = vec![slice("t2m", 0..24), slice("u10", 0..10)];
    let expected = Arc::new(server.handle_batch(&batch));

    // Every executed batch holds the lone dispatch worker for 20 ms, so
    // concurrent arrivals pile past the backlog cap of 1 and shed.
    faults::install(FaultPlan::seeded(99).rule(
        "dispatch",
        FaultAction::Delay(Duration::from_millis(20)),
        1.0,
    ));

    let flood: Vec<_> = (0..12)
        .map(|_| {
            let batch = batch.clone();
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut shed_seen = 0u64;
                let mut served_seen = 0u64;
                for _ in 0..6 {
                    let got = client.batch(&batch).unwrap();
                    if got
                        .iter()
                        .all(|r| matches!(r, Err(ServeError::Overloaded { retry_after_ms: 5 })))
                    {
                        shed_seen += 1;
                    } else {
                        assert_eq!(got, *expected, "accepted batch must still be exact");
                        served_seen += 1;
                    }
                }
                (shed_seen, served_seen)
            })
        })
        .collect();
    let (shed_seen, served_seen) = flood
        .into_iter()
        .map(|t| t.join().unwrap())
        .fold((0, 0), |acc, x| (acc.0 + x.0, acc.1 + x.1));

    let net = handle.net_stats();
    assert!(net.shed > 0, "backlog never shed: {net:?}");
    assert!(shed_seen > 0, "no client observed Overloaded");
    assert!(served_seen > 0, "no batch was ever accepted");

    // A self-healing client honors `retry_after_ms` and gets the real
    // answer even while the slow-dispatch fault is still installed.
    let mut healing = Client::connect_with(
        addr,
        ClientConfig {
            retry: Some(RetryPolicy {
                max_retries: 32,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(50),
                seed: 0xFEED,
            }),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    assert_eq!(healing.batch(&batch).unwrap(), *expected);
    handle.shutdown();
    faults::clear();
}

/// Satellite: a graceful shutdown landing while a fragmented
/// response is half-written must surface as a typed
/// [`WireError::StreamTruncated`] at the client — never a hang and
/// never a silent partial result. A between-fragments stall fault pins
/// the response mid-stream so the shutdown deterministically lands
/// inside it.
#[test]
fn shutdown_mid_stream_surfaces_typed_stream_truncated() {
    let _guard = fault_guard();
    // One 2 MiB member cut into 32 KiB fragments: 64 stream frames.
    let mut catalog = Catalog::new();
    let wide = build_archive(2048, 128, 32, [Codec::F32Shuffle, Codec::Raw64]);
    catalog.open_archive_bytes(ARCHIVE, wide).unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let handle = spawn(
        &server,
        NetConfig {
            stream_chunk_bytes: 32 << 10,
            idle_timeout: Some(Duration::from_millis(300)),
            ..NetConfig::default()
        },
    );
    let addr = handle.addr();

    // 25 ms between fragments ⇒ the full stream takes ~1.6 s; the
    // shutdown below lands a few fragments in, mid-reassembly.
    faults::install(FaultPlan::seeded(11).rule(
        "net.write.frame",
        FaultAction::Stall(Duration::from_millis(25)),
        1.0,
    ));

    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let _ = tx.send(client.batch(&[slice("t2m", 0..128)]));
    });
    std::thread::sleep(Duration::from_millis(250));
    handle.shutdown();
    let got = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("client hung after mid-stream shutdown");
    match got {
        Err(WireError::StreamTruncated) => {}
        other => panic!("expected StreamTruncated, got {other:?}"),
    }
    reader.join().unwrap();
    faults::clear();
}
