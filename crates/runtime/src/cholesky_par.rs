//! Task-parallel mixed-precision tile Cholesky on the DAG executor.
//!
//! Numerically identical to `exaclim_linalg::tile_cholesky`: the dependence
//! edges of [`crate::graph::cholesky_graph`] serialize same-tile updates in
//! ascending panel order, so every tile sees the exact operation sequence of
//! the sequential loop — results match bitwise in every precision variant.

use crate::executor::{ExecError, Executor, SchedulerKind};
use crate::graph::{cholesky_graph, TaskKind};
use crate::trace::TraceReport;
use exaclim_linalg::cholesky::{CholeskyStats, TileTasks};
use exaclim_linalg::tiled::TiledMatrix;
use std::time::Instant;

/// Factor `a` in place using `workers` threads under `scheduler`.
///
/// Returns the same [`CholeskyStats`] as the sequential path plus the
/// executor's [`TraceReport`]. The tasks update `a`'s tiles where they
/// are, so a failed factorization leaves `a` partially factored, as the
/// sequential one does.
pub fn parallel_tile_cholesky(
    a: &mut TiledMatrix,
    workers: usize,
    scheduler: SchedulerKind,
) -> Result<(CholeskyStats, TraceReport), ExecError> {
    let start = Instant::now();
    let graph = cholesky_graph(a.nt());
    let tasks = TileTasks::new(a);
    let trace = Executor::new(workers, scheduler).run(&graph, |_, kind| {
        match *kind {
            TaskKind::Potrf { k } => tasks.potrf(k).map_err(|e| e.to_string())?,
            TaskKind::Trsm { i, k } => tasks.trsm(i, k),
            TaskKind::Syrk { i, k } => tasks.syrk(i, k),
            TaskKind::Gemm { i, j, k } => tasks.gemm(i, j, k),
            TaskKind::Generic(_) => unreachable!("cholesky graph has no generic tasks"),
        }
        Ok(())
    })?;
    drop(tasks);
    let stats = CholeskyStats::for_matrix(a, start.elapsed().as_secs_f64());
    Ok((stats, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_linalg::cholesky::{factorization_residual, tile_cholesky};
    use exaclim_linalg::precision::PrecisionPolicy;
    use exaclim_linalg::tiled::exp_covariance;

    fn schedulers() -> [SchedulerKind; 3] {
        [
            SchedulerKind::WorkStealing,
            SchedulerKind::PriorityHeap,
            SchedulerKind::Fifo,
        ]
    }

    #[test]
    fn matches_sequential_bitwise_dp() {
        let n = 48;
        let a = exp_covariance(n, 5.0, 1e-3);
        let mut seq = TiledMatrix::from_dense(&a, n, 8, &PrecisionPolicy::dp());
        tile_cholesky(&mut seq).unwrap();
        for sched in schedulers() {
            let mut par = TiledMatrix::from_dense(&a, n, 8, &PrecisionPolicy::dp());
            parallel_tile_cholesky(&mut par, 4, sched).unwrap();
            let (s, p) = (seq.to_dense_lower(), par.to_dense_lower());
            assert_eq!(s, p, "bitwise mismatch under {sched:?}");
        }
    }

    #[test]
    fn matches_sequential_bitwise_mixed_precision() {
        let n = 64;
        let a = exp_covariance(n, 6.0, 1e-2);
        for policy in [
            PrecisionPolicy::dp_sp(),
            PrecisionPolicy::dp_hp(),
            PrecisionPolicy::dp_sp_hp(8),
        ] {
            let mut seq = TiledMatrix::from_dense(&a, n, 8, &policy);
            tile_cholesky(&mut seq).unwrap();
            let mut par = TiledMatrix::from_dense(&a, n, 8, &policy);
            parallel_tile_cholesky(&mut par, 6, SchedulerKind::PriorityHeap).unwrap();
            assert_eq!(
                seq.to_dense_lower(),
                par.to_dense_lower(),
                "policy {}",
                policy.label()
            );
        }
    }

    #[test]
    fn residual_small_in_parallel() {
        let n = 64;
        let a = exp_covariance(n, 8.0, 1e-3);
        let mut tm = TiledMatrix::from_dense(&a, n, 16, &PrecisionPolicy::dp());
        let (stats, trace) =
            parallel_tile_cholesky(&mut tm, 4, SchedulerKind::WorkStealing).unwrap();
        assert!(factorization_residual(&a, &tm) < 1e-13);
        assert_eq!(stats.kernel_counts.0, 4);
        assert_eq!(trace.spans.len(), crate::graph::cholesky_task_count(4));
    }

    #[test]
    fn indefinite_matrix_fails_cleanly() {
        let n = 16;
        let mut a = exp_covariance(n, 2.0, 0.0);
        a[0] = -3.0;
        let mut tm = TiledMatrix::from_dense(&a, n, 4, &PrecisionPolicy::dp());
        let err = parallel_tile_cholesky(&mut tm, 4, SchedulerKind::WorkStealing).unwrap_err();
        assert!(err.message.contains("positive definite"), "{}", err.message);
    }

    #[test]
    fn single_worker_equals_multi_worker() {
        let n = 32;
        let a = exp_covariance(n, 4.0, 1e-3);
        let mut one = TiledMatrix::from_dense(&a, n, 8, &PrecisionPolicy::dp_hp());
        let mut many = TiledMatrix::from_dense(&a, n, 8, &PrecisionPolicy::dp_hp());
        parallel_tile_cholesky(&mut one, 1, SchedulerKind::Fifo).unwrap();
        parallel_tile_cholesky(&mut many, 8, SchedulerKind::WorkStealing).unwrap();
        assert_eq!(one.to_dense_lower(), many.to_dense_lower());
    }
}
