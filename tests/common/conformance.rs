//! The serve conformance runner: one table of configurations
//! (byte-source backend × cache, transport and fragment size,
//! reactor-resident or dispatched batches, fault plan), each row running
//! the seeded [`super::workload`] batches and comparing whole answers,
//! typed per-request errors included, with `assert_eq!` against the oracle, in-process
//! `Server::handle_batch` over the same stored bytes.
//! `serve_conformance` runs every row; a suite test runs the rows of the
//! configurations it is about through [`run`].

use super::*;
use exaclim_runtime::{faults, FaultAction, FaultPlan};
use exaclim_serve::{
    Client, ClientConfig, NetConfig, NetServerHandle, NetStats, Request, RetryPolicy, ServeConfig,
    Server,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Seeds each row runs; row `i` runs seeds `1000 i ..`.
const SEEDS: u64 = 3;
/// Concurrent callers of every row.
const CLIENTS: usize = 4;

#[derive(Clone, Copy)]
pub enum Front {
    /// `handle_batch` on another server.
    InProcess,
    /// A `NetServer` with this stream fragment size (`None`: default).
    Net(Option<usize>),
}

pub struct Row {
    /// "bytes", "mmap-file", "buffered-file" or "stream".
    pub backend: &'static str,
    pub cache: bool,
    pub front: Front,
    /// The workload's slices only, every chunk already cached, so the
    /// reactor answers them itself; otherwise whole workload batches,
    /// which a dispatch worker answers.
    pub warm_slices: bool,
    /// `serve_chaos`'s seeded fault plan, with retrying clients.
    pub chaos: bool,
}

impl Row {
    pub fn name(&self) -> String {
        let front = match self.front {
            Front::InProcess => "in-process".to_string(),
            Front::Net(None) => "net".to_string(),
            Front::Net(Some(bytes)) => format!("net-{bytes}B-fragments"),
        };
        let cache = ["off", "on"][self.cache as usize];
        let batches = ["mixed", "warm-slices"][self.warm_slices as usize];
        let faults = ["no-faults", "chaos"][self.chaos as usize];
        format!("{}/cache-{cache}/{front}/{batches}/{faults}", self.backend)
    }
}

fn table() -> Vec<Row> {
    let row = |backend, cache, front, warm_slices| Row {
        backend,
        cache,
        front,
        warm_slices,
        chaos: false,
    };
    let mut rows = Vec::new();
    for backend in ["bytes", "mmap-file", "buffered-file", "stream"] {
        for cache in [true, false] {
            rows.push(row(backend, cache, Front::InProcess, false));
        }
    }
    for (backend, fragment, warm) in [
        ("bytes", None, false),
        ("bytes", Some(64), false),
        ("mmap-file", None, false),
        ("buffered-file", Some(64), false),
        ("bytes", None, true),
        ("bytes", Some(64), true),
    ] {
        rows.push(row(backend, true, Front::Net(fragment), warm));
    }
    // Last: when it is done no plan is armed, an ambient one included.
    rows.push(Row {
        chaos: true,
        ..row("bytes", true, Front::Net(None), false)
    });
    rows
}

/// A batch and the oracle's answers to it.
struct Case {
    seed: u64,
    batch: Vec<Request>,
    expected: Vec<Reply>,
}

/// The oracle's answers, computed once per seed and batch shape.
#[derive(Default)]
struct Oracle(Mutex<HashMap<(u64, bool), Arc<Case>>>);

impl Oracle {
    fn case(&self, seed: u64, warm_slices: bool) -> Arc<Case> {
        let mut cases = self.0.lock().unwrap();
        let case = cases.entry((seed, warm_slices)).or_insert_with(|| {
            let mut batch = workload(seed);
            if warm_slices {
                batch.retain(|r| match r {
                    Request::WithDeadline { request, .. } => matches!(**request, Request::Slice(_)),
                    other => matches!(other, Request::Slice(_)),
                });
            }
            let expected = oracle().handle_batch(&batch);
            Arc::new(Case {
                seed,
                batch,
                expected,
            })
        });
        Arc::clone(case)
    }
}

fn check(row: &str, case: &Case, got: &[Reply]) {
    assert_eq!(got, case.expected, "row {row}, seed {}", case.seed);
}

/// Run every case from `CLIENTS` threads at once, each with the caller
/// `connect` gives it.
fn concurrently<C>(
    cases: &[Arc<Case>],
    connect: impl Fn() -> C + Sync,
    run: impl Fn(&mut C, &Case) + Sync,
) {
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut caller = connect();
                cases.iter().for_each(|case| run(&mut caller, case));
            });
        }
    });
}

fn over_wire(name: &str, addr: std::net::SocketAddr, cases: &[Arc<Case>]) {
    concurrently(
        cases,
        || Client::connect(addr).unwrap(),
        |client, case| check(name, case, &client.batch(&case.batch).unwrap()),
    );
}

fn server_for(row: &Row, file: &TempArchive) -> Arc<Server> {
    let path = &file.0;
    let (catalog, want) = match row.backend {
        "bytes" => (catalog(), "bytes"),
        "mmap-file" => (
            catalog_with(|c| c.open_archive_file(ARCHIVE, path)),
            if exaclim_store::MMAP_SUPPORTED {
                "mmap"
            } else {
                "stream"
            },
        ),
        "buffered-file" => (
            catalog_with(|c| {
                let file = std::fs::File::open(path).unwrap();
                c.open_archive(ARCHIVE, std::io::BufReader::new(file))
            }),
            "stream",
        ),
        _ => (
            catalog_with(|c| c.open_archive(ARCHIVE, std::io::Cursor::new(archive_bytes()))),
            "stream",
        ),
    };
    assert_eq!(
        catalog.archive(ARCHIVE).unwrap().backend(),
        want,
        "{}",
        row.name()
    );
    let cache_bytes = if row.cache {
        ServeConfig::default().cache_bytes
    } else {
        0
    };
    Arc::new(Server::new(
        catalog,
        ServeConfig {
            cache_bytes,
            ..ServeConfig::default()
        },
    ))
}

/// The transport counters once the server has counted `responses`
/// responses (the last ones land after the client has reassembled them).
fn settled(handle: &NetServerHandle, responses: u64) -> NetStats {
    let mut stats = handle.net_stats();
    for _ in 0..400 {
        if stats.frames_per_response.iter().sum::<u64>() >= responses {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        stats = handle.net_stats();
    }
    stats
}

fn run_net(
    row: &Row,
    name: &str,
    fragment: Option<usize>,
    server: &Arc<Server>,
    cases: &[Arc<Case>],
) {
    let default = NetConfig::default();
    let stream_chunk_bytes = fragment.unwrap_or(default.stream_chunk_bytes);
    let handle = spawn(
        server,
        NetConfig {
            stream_chunk_bytes,
            ..default
        },
    );
    if row.warm_slices {
        for case in cases {
            check(name, case, &server.handle_batch(&case.batch));
        }
    }
    let before = handle.net_stats();
    over_wire(name, handle.addr(), cases);
    let after = handle.net_stats();
    let wakeups = after.reactor_wakeups - before.reactor_wakeups;
    if !row.warm_slices {
        assert!(wakeups >= 1, "{name}: no batch reached a worker");
    } else if after.faults_injected == before.faults_injected {
        // (An ambient `dispatch` fault sends a batch to a worker.)
        assert_eq!(wakeups, 0, "{name}: a resident batch woke the reactor");
    }

    // Stats streams and reassembles too; its counters move with every
    // batch, so monotonicity is the invariant.
    let mut client = Client::connect(handle.addr()).unwrap();
    let a = client.stats().unwrap();
    assert!(client.stats().unwrap().batches > a.batches, "{name}");
    let responses = (CLIENTS * cases.len()) as u64 + 2;
    let stats = settled(&handle, responses);
    assert_eq!(stats.wire_errors, 0, "{name}: {stats:?}");
    if fragment.is_some() {
        assert!(
            stats.streamed_responses >= responses - 2,
            "{name}: {stats:?}"
        );
        assert!(
            stats.stream_frames_out > stats.streamed_responses,
            "{name}: fragments must outnumber streamed responses: {stats:?}"
        );
        let histogram: u64 = stats.frames_per_response.iter().sum();
        assert!(
            histogram >= responses,
            "{name}: histogram not populated: {stats:?}"
        );
    } else {
        // One fragment per response, counted as one frame, not a stream.
        assert_eq!(stats.frames_per_response[0], responses, "{name}: {stats:?}");
        let streamed = (stats.streamed_responses, stats.stream_frames_out);
        assert_eq!(streamed, (0, 0), "{name}");
    }
    drop(client);
    handle.shutdown();
}

/// `serve_chaos`'s plan: short reads, EINTR, resets, read/write delays,
/// dispatch-queue delays, decode corruption, product failures and
/// exactly one worker panic. Clients that retry absorb all of it; the
/// chaos shows only in the counters.
fn run_chaos(name: &str, server: &Arc<Server>, cases: &[Arc<Case>]) {
    let _guard = fault_guard();
    let handle = spawn(server, NetConfig::default());
    let injected = faults::injected();
    let delay = FaultAction::Delay(Duration::from_millis(1));
    faults::install(
        FaultPlan::seeded(0xC0FFEE + 1)
            .rule("net.read", FaultAction::ShortRead, 0.05)
            .rule("net.read", FaultAction::Interrupt, 0.05)
            .rule("net.read", delay, 0.05)
            .rule("net.read", FaultAction::Reset, 0.02)
            .rule("net.write", delay, 0.05)
            .rule("net.write", FaultAction::Reset, 0.02)
            .rule("decode", FaultAction::Corrupt, 0.04)
            .rule("product", FaultAction::Error, 0.04)
            .rule("dispatch", delay, 0.1)
            .rule_max("dispatch", FaultAction::Panic, 1.0, 1),
    );
    let (retries, seed) = (AtomicU64::new(0), AtomicU64::new(0));
    let timeout = Some(Duration::from_secs(5));
    std::thread::scope(|scope| {
        for _ in 0..2 * CLIENTS {
            scope.spawn(|| {
                let retry = Some(RetryPolicy {
                    max_retries: 16,
                    base_delay: Duration::from_millis(2),
                    max_delay: Duration::from_millis(50),
                    seed: seed.fetch_add(1, Ordering::Relaxed),
                });
                let config = ClientConfig {
                    connect_timeout: timeout,
                    read_timeout: timeout,
                    write_timeout: timeout,
                    retry,
                };
                let mut client = Client::connect_with(handle.addr(), config).unwrap();
                for case in cases.iter().chain(cases) {
                    let got = client
                        .batch(&case.batch)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    check(name, case, &got);
                }
                retries.fetch_add(client.client_stats().retries, Ordering::Relaxed);
            });
        }
    });
    assert!(faults::injected() > injected, "{name}: no faults fired");
    assert!(handle.net_stats().faults_injected > 0, "{name}");
    // The one certain retryable event is the capped worker panic.
    assert!(retries.into_inner() > 0, "{name}: no client ever retried");
    assert!(
        server.stats().errors > 0,
        "{name}: the panic never surfaced"
    );
    handle.shutdown();
}

fn run_row(index: usize, row: &Row, oracle: &Oracle, file: &TempArchive) {
    let name = row.name();
    let cases: Vec<Arc<Case>> = (0..SEEDS)
        .map(|k| oracle.case(1000 * index as u64 + k, row.warm_slices))
        .collect();
    // The chaos row arms its own plan under `fault_guard`.
    let _faults = (!row.chaos).then(fault_lock);
    match row.front {
        Front::InProcess => {
            let server = server_for(row, file);
            concurrently(
                &cases,
                || (),
                |_, case| check(&name, case, &server.handle_batch(&case.batch)),
            );
        }
        Front::Net(_) if row.chaos => run_chaos(&name, &server_for(row, file), &cases),
        Front::Net(fragment) => run_net(row, &name, fragment, &server_for(row, file), &cases),
    }
}

/// Run every row of the table that `select` picks, each over its own
/// seeds. A failing row does not stop the others, so a defect shows as
/// exactly the rows whose axis it breaks.
pub fn run(select: impl Fn(&Row) -> bool) {
    // Suite tests run side by side, so each run writes its own file.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let tag = format!("conformance_{}", RUNS.fetch_add(1, Ordering::Relaxed));
    let file = TempArchive::new(&tag, &archive_bytes());
    let oracle = Oracle::default();
    let rows: Vec<(usize, Row)> = table()
        .into_iter()
        .enumerate()
        .filter(|(_, row)| select(row))
        .collect();
    assert!(!rows.is_empty(), "no row selected");
    let failed: Vec<String> = rows
        .iter()
        .filter(|(i, row)| {
            let run = std::panic::AssertUnwindSafe(|| run_row(*i, row, &oracle, &file));
            std::panic::catch_unwind(run).is_err()
        })
        .map(|(_, row)| row.name())
        .collect();
    assert!(
        failed.is_empty(),
        "rows that diverged from the oracle: {failed:#?}"
    );
}
