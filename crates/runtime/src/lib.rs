//! # exaclim-runtime
//!
//! A PaRSEC-style dynamic task runtime (paper §II.D, §III.C), built from
//! scratch on `parking_lot`, with one set of threads — the [`pool`]:
//!
//! * [`graph`] — task DAGs with explicit dependences and priorities,
//!   including the parametrized tile-Cholesky graph (the PTG the paper's
//!   DSL would generate),
//! * [`executor`] — the DAG executor: the pool's lanes drain a global
//!   priority heap (the paper's critical-path priorities),
//! * [`faults`] — deterministic, seeded fault injection (`EXACLIM_FAULTS`
//!   env + programmatic [`faults::FaultPlan`] API, zero-cost when
//!   disabled); the serving layer threads its injection points through
//!   socket I/O, chunk decode, and batch dispatch so resilience
//!   machinery can be qualified under a reproducible failure schedule,
//! * [`pool`] — the shared worker pool and the one data-parallel API
//!   (`parallel_for`, `join`, mutable chunk splits, ordered `map`); the
//!   design pipeline and the serve layer call it directly, and the
//!   executor runs its lanes on it,
//! * [`reactor`] — a dependency-free readiness reactor (raw
//!   `epoll`/`poll(2)` FFI, unix-gated, in the spirit of the raw-mmap FFI
//!   in `exaclim-store`) with token-based registration, a deadline wheel,
//!   and a cross-thread wakeup fd; the serving layer multiplexes its
//!   nonblocking connection state machines over it,
//! * [`trace`] — per-task timelines, worker utilization, and critical-path
//!   statistics used by the scaling ablations,
//! * [`cholesky_par`] — the task-parallel mixed-precision tile Cholesky,
//!   numerically identical to the sequential `exaclim_linalg` version.
//!
//! The distributed-execution message ledger of Figure 5 lives with the
//! other machine models in `exaclim_cluster::distsim`.

pub mod cholesky_par;
pub mod executor;
pub mod faults;
pub mod graph;
pub mod pool;
pub mod reactor;
pub mod trace;

pub use cholesky_par::parallel_tile_cholesky;
pub use executor::{ExecError, Executor, SchedulerKind, TaskFailure};
pub use faults::{FaultAction, FaultPlan};
pub use graph::{cholesky_graph, TaskGraph, TaskId};
pub use pool::WorkerPool;
#[cfg(unix)]
pub use reactor::{Backend, Reactor, Waker};
pub use reactor::{Event, Interest, Mode, Token};
pub use trace::TraceReport;

/// Serializes the wall-clock speedup tests of this crate: libtest runs
/// tests concurrently within a binary, and two overlapping spin-timing
/// measurements would skew each other's ratios on small CI hosts.
#[cfg(test)]
pub(crate) static TIMING_TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// The process-wide pool as the design pipeline calls it: ordered maps,
/// mutable chunk splits and nesting on [`pool::global`], sized by
/// `EXACLIM_THREADS`. The tests that keep every lane busy hold
/// [`TIMING_TEST_LOCK`] so they do not skew the speedup measurements.
#[cfg(test)]
mod tests {
    use crate::pool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn range_into_par_iter_collects() {
        let v = pool::global().map(5, |i| i * i);
        assert_eq!(v, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_regions() {
        let mut buf = vec![0.0f64; 6];
        pool::global().parallel_chunks_mut(&mut buf, 2, |i, chunk| {
            for c in chunk {
                *c = i as f64;
            }
        });
        assert_eq!(buf, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn collect_preserves_input_order_at_scale() {
        let _timing = crate::TIMING_TEST_LOCK.lock();
        // Large enough to split across every pool lane many times over.
        let n = 100_000usize;
        let v = pool::global().map(n, |i| i.wrapping_mul(31));
        assert_eq!(v.len(), n);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i.wrapping_mul(31));
        }
    }

    #[test]
    fn par_chunks_mut_stress_disjoint_under_real_threads() {
        let _timing = crate::TIMING_TEST_LOCK.lock();
        // Concurrency stress: many rounds over a buffer whose chunk size
        // does not divide its length; every element must be written exactly
        // once per round with its own chunk's value.
        let len = 65_536usize;
        let chunk = 97usize;
        let mut buf = vec![0u32; len];
        for round in 1..=8u32 {
            pool::global().parallel_chunks_mut(&mut buf, chunk, |ci, c| {
                for v in c.iter_mut() {
                    *v = *v + ci as u32 + round;
                }
            });
            for (i, v) in buf.iter().enumerate() {
                let expect: u32 = (1..=round).map(|r| (i / chunk) as u32 + r).sum();
                assert_eq!(*v, expect, "round {round}, index {i}");
            }
        }
    }

    #[test]
    fn ragged_tail_chunks_have_correct_lengths() {
        let chunk_lens = |len: usize| {
            let mut data = vec![1u8; len];
            let lens: Vec<AtomicUsize> =
                (0..len.div_ceil(4)).map(|_| AtomicUsize::new(0)).collect();
            pool::global().parallel_chunks_mut(&mut data, 4, |ci, c| {
                lens[ci].store(c.len(), Ordering::Relaxed);
            });
            lens.into_iter()
                .map(AtomicUsize::into_inner)
                .collect::<Vec<_>>()
        };
        assert_eq!(chunk_lens(10), vec![4, 4, 2]);
        assert!(chunk_lens(0).is_empty());
    }

    #[test]
    fn nested_par_calls_complete() {
        let _timing = crate::TIMING_TEST_LOCK.lock();
        // Inner calls run inline on pool workers, in parallel on the caller
        // lane. Either way this must terminate and produce the sequential
        // answer.
        let p = pool::global();
        let sums = p.map(8, |k| p.map(100, |i| i + k).iter().sum::<usize>());
        for (k, s) in sums.iter().enumerate() {
            assert_eq!(*s, 99 * 100 / 2 + 100 * k);
        }
    }

    #[test]
    fn par_chunks_speedup_gated() {
        // Same style as the executor's gated speedup assertion: only
        // meaningful when the pool has ≥ 2 lanes AND the host has ≥ 2
        // cores (EXACLIM_THREADS may exceed the hardware).
        let lanes = pool::global().threads();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let effective = lanes.min(cores).min(8);
        if effective < 2 {
            eprintln!("skipping par_chunks speedup assertion (lanes={lanes}, cores={cores})");
            return;
        }
        let _timing = crate::TIMING_TEST_LOCK.lock();
        let spin = |chunk: &mut [u64]| {
            let t = std::time::Instant::now();
            while t.elapsed().as_micros() < 1000 {
                std::hint::spin_loop();
            }
            chunk[0] = chunk[0].wrapping_add(1);
        };
        let n_chunks = 64usize;
        let mut buf = vec![0u64; n_chunks];
        let t_seq = {
            let t = std::time::Instant::now();
            for c in buf.chunks_mut(1) {
                spin(c);
            }
            t.elapsed().as_secs_f64()
        };
        let t_par = {
            let t = std::time::Instant::now();
            pool::global().parallel_chunks_mut(&mut buf, 1, |_, c| spin(c));
            t.elapsed().as_secs_f64()
        };
        assert!(buf.iter().all(|&v| v == 2), "every chunk ran once per pass");
        let min_speedup = 1.0 + 0.3 * (effective as f64 - 1.0);
        assert!(
            t_seq / t_par > min_speedup,
            "lanes={lanes}, cores={cores}: t_seq={t_seq}, t_par={t_par}, want ≥ {min_speedup}×"
        );
    }
}
