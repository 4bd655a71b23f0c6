//! Chaos conformance: the serving stack must *survive* injected
//! failure, not merely report it. Under a seeded fault plan — socket
//! resets, short reads, EINTR, queue delays, decode corruption, a
//! worker panic — a multi-client mixed workload must still complete
//! with every response bit-identical to the in-process answer, the
//! self-healing [`Client`] absorbing every retryable failure. Overload
//! shedding must turn a saturated dispatch backlog into typed
//! retryable [`ServeError::Overloaded`] hints instead of unbounded
//! queues, and a graceful shutdown that lands mid-stream must surface
//! as a typed [`WireError::StreamTruncated`] at the client, never a hang.

use exaclim_runtime::{faults, FaultAction, FaultPlan};
use exaclim_serve::{
    Catalog, CatalogQuery, Client, ClientConfig, NetConfig, NetServer, NetServerHandle,
    ProductDescriptor, ProductSource, ProductStat, Request, Response, RetryPolicy, ServeConfig,
    ServeError, Server, SliceRequest, WireError,
};
use exaclim_store::{Archive, ArchiveError, ArchiveWriter, Codec, FieldMeta};
use std::io::Cursor;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

const VPS: usize = 48;
const T_MAX: u64 = 96;
const CHUNK_T: usize = 17;

/// Fault plans are process-global: every test that installs one holds
/// this lock for its whole run so plans never bleed across tests.
fn fault_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Holds the global fault lock; disarms whatever plan is installed on
/// drop (including on panic) so a failing test cannot poison the rest.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::clear();
    }
}

fn fault_guard() -> FaultGuard {
    let guard = fault_lock().lock().unwrap_or_else(|p| p.into_inner());
    faults::clear();
    FaultGuard(guard)
}

fn archive_bytes(vps: usize, t_max: u64, chunk_t: usize) -> Vec<u8> {
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
    for (name, phase, codec) in [("t2m", 0.0, Codec::F32Shuffle), ("u10", 2.3, Codec::Raw64)] {
        let data: Vec<f64> = (0..vps * t_max as usize)
            .map(|i| 260.0 + 25.0 * (i as f64 * 0.017 + phase).sin())
            .collect();
        w.add_field(name, codec, FieldMeta::default(), vps, chunk_t, &data)
            .unwrap();
    }
    w.finish().unwrap().0.into_inner()
}

fn spawn_with(config: NetConfig) -> (Arc<Server>, NetServerHandle) {
    let mut catalog = Catalog::new();
    catalog
        .open_archive_bytes("a", archive_bytes(VPS, T_MAX, CHUNK_T))
        .unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let handle = NetServer::bind("127.0.0.1:0", Arc::clone(&server), config)
        .unwrap()
        .spawn();
    (server, handle)
}

fn slice(member: &str, range: std::ops::Range<u64>) -> Request {
    Request::Slice(SliceRequest {
        archive: "a".to_string(),
        member: member.to_string(),
        range,
    })
}

/// A deterministic mixed batch, varied per client so the workload
/// exercises cross-client cache sharing and distinct chunk sets. Every
/// request's answer is a pure function of the batch (no `Stats`), so
/// responses can be compared bit-for-bit against the in-process answer.
fn mixed_batch(i: u64) -> Vec<Request> {
    vec![
        slice("t2m", i..T_MAX - i),
        slice("u10", (i * 3) % 40..T_MAX),
        slice("missing", 0..1),
        Request::WithDeadline {
            budget_ms: 60_000,
            request: Box::new(slice("t2m", 0..(8 + i))),
        },
        Request::WithDeadline {
            budget_ms: 0,
            request: Box::new(slice("u10", 0..4)),
        },
        Request::Product(ProductDescriptor {
            source: ProductSource::Member {
                archive: "a".to_string(),
                member: "t2m".to_string(),
            },
            stat: ProductStat::MeanStd,
            time: Some(i..T_MAX - 2),
            space: None,
        }),
        Request::Catalog(CatalogQuery::ListArchives),
    ]
}

/// The tentpole acceptance run: 8 clients under a seeded plan injecting
/// short reads, EINTR, resets, read/write delays, dispatch-queue delays,
/// decode corruption, product failures, and exactly one worker panic.
/// Every batch a retrying client submits must come back bit-identical to
/// the in-process `handle_batch` answer — the chaos shows up only in the
/// resilience counters.
#[test]
fn chaos_workload_completes_bit_identical_under_seeded_faults() {
    let _guard = fault_guard();
    let (server, handle) = spawn_with(NetConfig::default());
    let addr = handle.addr();

    // Expected answers are computed in-process with faults disarmed:
    // the ground truth the chaos run must reproduce exactly.
    let expected: Arc<Vec<Vec<Result<Response, ServeError>>>> = Arc::new(
        (0..8)
            .map(|i| server.handle_batch(&mixed_batch(i)))
            .collect(),
    );

    let injected_before = faults::injected();
    faults::install(
        FaultPlan::seeded(0xC0FFEE + 1)
            .rule("net.read", FaultAction::ShortRead, 0.05)
            .rule("net.read", FaultAction::Interrupt, 0.05)
            .rule(
                "net.read",
                FaultAction::Delay(Duration::from_millis(1)),
                0.05,
            )
            .rule("net.read", FaultAction::Reset, 0.02)
            .rule(
                "net.write",
                FaultAction::Delay(Duration::from_millis(1)),
                0.05,
            )
            .rule("net.write", FaultAction::Reset, 0.02)
            .rule("decode", FaultAction::Corrupt, 0.04)
            .rule("product", FaultAction::Error, 0.04)
            .rule(
                "dispatch",
                FaultAction::Delay(Duration::from_millis(1)),
                0.1,
            )
            .rule_max("dispatch", FaultAction::Panic, 1.0, 1),
    );

    let workers: Vec<_> = (0..8u64)
        .map(|i| {
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect_with(
                    addr,
                    ClientConfig {
                        connect_timeout: Some(Duration::from_secs(5)),
                        read_timeout: Some(Duration::from_secs(5)),
                        write_timeout: Some(Duration::from_secs(5)),
                        retry: Some(RetryPolicy {
                            max_retries: 16,
                            base_delay: Duration::from_millis(2),
                            max_delay: Duration::from_millis(50),
                            seed: i,
                        }),
                        ..ClientConfig::default()
                    },
                )
                .expect("chaos client connect");
                let batch = mixed_batch(i);
                for round in 0..12 {
                    let got = client
                        .batch(&batch)
                        .unwrap_or_else(|e| panic!("client {i} round {round}: {e}"));
                    assert_eq!(got, expected[i as usize], "client {i} round {round}");
                }
                client.client_stats()
            })
        })
        .collect();
    let client_stats: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    assert!(faults::injected() > injected_before, "no faults fired");
    let net = handle.net_stats();
    assert!(net.faults_injected > 0, "{net:?}");
    // The one guaranteed-retryable event is the capped worker panic:
    // some client saw its batch come back `Internal` and retried.
    let retries: u64 = client_stats.iter().map(|s| s.retries).sum();
    assert!(retries > 0, "no client ever retried: {client_stats:?}");
    assert!(server.stats().errors > 0, "panic never surfaced");
    handle.shutdown();
    faults::clear();
}

/// Satellite: a dispatch-worker panic must become a typed
/// [`ServeError::Internal`] response on that request's connection and
/// leave the server (and the connection) serving — it must never strand
/// the requester or kill the process.
#[test]
fn worker_panic_becomes_typed_internal_error_and_server_survives() {
    let _guard = fault_guard();
    let (server, handle) = spawn_with(NetConfig::default());
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
    let mut raw = archive_bytes(VPS, T_MAX, CHUNK_T);
    let chunk = {
        let archive = Archive::from_bytes(raw.clone()).unwrap();
        let u10 = archive.members().iter().find(|m| m.name == "u10").unwrap();
        u10.chunks[1]
    };
    assert!(chunk.stored_len >= 1024, "{}", chunk.stored_len);
    raw[chunk.offset as usize + 300] ^= 0x08;
    let mut catalog = Catalog::new();
    catalog.open_archive_bytes("a", raw).unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let handle = NetServer::bind("127.0.0.1:0", Arc::clone(&server), NetConfig::default())
        .unwrap()
        .spawn();

    let batch = vec![slice("u10", 0..T_MAX), slice("u10", 0..CHUNK_T as u64)];
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
    let (server, handle) = spawn_with(NetConfig {
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
    catalog
        .open_archive_bytes("a", archive_bytes(2048, 128, 32))
        .unwrap();
    let server = Arc::new(Server::new(catalog, ServeConfig::default()));
    let handle = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&server),
        NetConfig {
            stream_chunk_bytes: 32 << 10,
            idle_timeout: Some(Duration::from_millis(300)),
            ..NetConfig::default()
        },
    )
    .unwrap()
    .spawn();
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
