//! The process runs on one set of threads: `train` — its tile Cholesky
//! included — adds none beyond the shared pool's, whatever
//! `EmulatorConfig::workers` asks for. The only test in its binary, so no
//! other test's threads come and go while it counts.

use exaclim::{ClimateEmulator, EmulatorConfig};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// This process's current thread count (linux only; `None` elsewhere, so
/// the bound simply isn't asserted there).
fn thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn train_spawns_no_thread_beyond_the_pool() {
    let training = SyntheticEra5::new(SyntheticEra5Config::small_daily(12)).generate_member(0, 730);
    let mut config = EmulatorConfig::small(8);
    config.workers = 8;
    // Start the pool's workers before counting.
    exaclim_runtime::pool::global();
    let Some(before) = thread_count() else {
        return;
    };
    let done = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    std::thread::scope(|s| {
        // The sampler is the one thread this test adds.
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(thread_count().unwrap_or(0), Ordering::Relaxed);
            }
        });
        for _ in 0..3 {
            ClimateEmulator::train(&training, config.clone()).expect("train");
        }
        done.store(true, Ordering::Relaxed);
    });
    let peak = peak.into_inner();
    assert!(
        peak <= before + 1,
        "{peak} threads during train, {before} before it (plus the sampler)"
    );
}
