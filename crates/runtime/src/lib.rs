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
//! * [`pool`] — the shared worker pool for flat data parallelism
//!   (`parallel_for`, `join`, mutable chunk splits); the rayon shim routes
//!   every `par_iter`/`par_chunks` call site through it, and the executor
//!   runs its lanes on it,
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
