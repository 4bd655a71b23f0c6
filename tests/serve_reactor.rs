//! Event-driven network core at scale: the server must hold
//! hundreds of mostly-idle keep-alive connections with a thread count
//! that is a constant (reactor + dispatch + pool), not a function of
//! connection count; idle, half-open, and slowloris peers must be reaped
//! by the deadline without disturbing live clients.
#![cfg(unix)]

mod common;

use common::*;
use exaclim_serve::{Client, NetConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// This process's current thread count (linux only; `None` elsewhere, so
/// the bound simply isn't asserted there).
fn thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Raise the fd soft limit toward the hard limit (CI runners often sit at
/// 1024, too tight for a 512-connection loopback test that holds both
/// ends of every socket in one process).
fn raise_fd_limit(want: u64) {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;
    unsafe extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: plain POSIX calls on a local, correctly-shaped struct.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return;
        }
        if lim.cur < want.min(lim.max) {
            lim.cur = want.min(lim.max);
            let _ = setrlimit(RLIMIT_NOFILE, &lim);
        }
    }
}

/// ≥512 idle keep-alive connections plus hot traffic: every hot response
/// stays bit-identical to the in-process answer, the idle fleet registers
/// in the gauges, and the server's thread count stays a small constant —
/// the whole point of the event-driven refactor.
#[test]
fn idle_fleet_of_512_served_by_a_bounded_thread_count() {
    raise_fd_limit(4096);
    let (server, handle) = spawn_fixture(NetConfig {
        max_connections: 2048,
        ..NetConfig::default()
    });
    let addr = handle.addr();

    // Warm up the dispatch/pool threads so the baseline includes every
    // lazily-created worker, then measure.
    let mut warm = Client::connect(addr).unwrap();
    assert!(warm.batch(&[slice("t2m", 0..8)]).unwrap()[0].is_ok());
    let baseline = thread_count();

    let mut idle = Vec::new();
    for i in 0..512 {
        match Client::connect(addr) {
            Ok(c) => idle.push(c),
            Err(e) => panic!("idle connect {i} failed: {e}"),
        }
    }
    assert!(
        eventually(Duration::from_secs(10), || {
            handle.net_stats().open_connections >= 513 // idle fleet + warm
        }),
        "server never admitted the idle fleet: {:?}",
        handle.net_stats()
    );

    // Hot traffic through the standing fleet: a few of the idle
    // connections plus fresh ones, all bit-identical to in-process.
    let batch = vec![
        slice("t2m", 0..T_MAX),
        slice("u10", 3..40),
        slice("missing", 0..1),
    ];
    let expected = server.handle_batch(&batch);
    for client in idle.iter_mut().step_by(100) {
        assert_eq!(client.batch(&batch).unwrap(), expected);
    }
    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(fresh.batch(&batch).unwrap(), expected);

    // Thread count must be a constant (reactor + dispatch workers, both
    // ≤ 8, plus slack for anything the runtime spun up) — emphatically
    // not ~512 as thread-per-connection would be.
    if let (Some(before), Some(after)) = (baseline, thread_count()) {
        assert!(
            after <= before + 12,
            "thread count grew with connections: {before} -> {after}"
        );
    }

    let stats = handle.net_stats();
    assert!(stats.peak_connections >= 513, "{stats:?}");
    assert!(stats.connections >= 514, "{stats:?}");
    assert_eq!(stats.wire_errors, 0, "{stats:?}");

    // Closing the fleet drains the gauge back down.
    drop(idle);
    drop(fresh);
    drop(warm);
    assert!(
        eventually(Duration::from_secs(10), || {
            handle.net_stats().open_connections == 0
        }),
        "gauge never drained: {:?}",
        handle.net_stats()
    );
    handle.shutdown();
}

/// Slowloris (dribbling bytes), half-open (silent), and a live client,
/// all at once: the deadline reaps the first two
/// while the live client keeps getting served, before and after.
#[test]
fn reactor_reaps_slowloris_and_half_open_peers() {
    let (server, handle) = spawn_fixture(NetConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        ..NetConfig::default()
    });
    let addr = handle.addr();

    // Half-open: connects, never sends.
    let half_open = TcpStream::connect(addr).unwrap();
    // Slowloris: dribbles header bytes, never completes a frame.
    let mut slowloris = TcpStream::connect(addr).unwrap();
    slowloris.write_all(b"EC").unwrap();

    let mut live = Client::connect(addr).unwrap();
    let batch = vec![slice("t2m", 0..12), slice("u10", 5..9)];
    let expected = server.handle_batch(&batch);

    // Keep the live client busy across several deadline windows while
    // dribbling one more byte to the slowloris socket: partial progress
    // must not count as liveness.
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(600) {
        assert_eq!(live.batch(&batch).unwrap(), expected);
        let _ = slowloris.write_all(b"N");
        std::thread::sleep(Duration::from_millis(40));
    }

    // The live client keeps talking while we wait — its own deadline
    // keeps re-arming, so only the two broken peers can be reaped.
    assert!(
        eventually(Duration::from_secs(5), || {
            assert_eq!(live.batch(&batch).unwrap(), expected);
            handle.net_stats().reaped_idle >= 2
        }),
        "slowloris/half-open never reaped: {:?}",
        handle.net_stats()
    );
    // The reaped sockets are actually closed: reads see EOF, not a hang.
    let mut buf = Vec::new();
    let mut half_open = half_open;
    half_open
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(half_open.read_to_end(&mut buf).unwrap_or(0), buf.len());

    // The survivor still works, as does a brand-new client.
    assert_eq!(live.batch(&batch).unwrap(), expected);
    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(fresh.batch(&batch).unwrap(), expected);
    handle.shutdown();
}

/// Graceful shutdown with a standing idle fleet:
/// `shutdown()` must drain and join promptly — the wakeup-fd nudge, not a
/// timeout, unblocks the parked reactor.
#[test]
fn reactor_shutdown_drains_idle_fleet_promptly() {
    let (_server, handle) = spawn_fixture(NetConfig::default());
    let addr = handle.addr();
    let mut clients = Vec::new();
    for _ in 0..32 {
        clients.push(Client::connect(addr).unwrap());
    }
    assert!(eventually(Duration::from_secs(5), || {
        handle.net_stats().open_connections >= 32
    }));
    let start = Instant::now();
    handle.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        start.elapsed()
    );
}
