//! Mixed-precision tile Cholesky on real CPU kernels: the four variants of
//! §IV.B, their accuracy, memory footprint, and task-parallel speed on the
//! in-house PaRSEC-style runtime.
//!
//! ```text
//! cargo run --release --example mixed_precision
//! ```

use exaclim_linalg::cholesky::factorization_residual;
use exaclim_linalg::precision::PrecisionPolicy;
use exaclim_linalg::tiled::{exp_covariance, TiledMatrix};
use exaclim_runtime::{parallel_tile_cholesky, SchedulerKind};

fn main() {
    let n = 768;
    let b = 64;
    // Ask for every core; the runtime caps the lanes at `EXACLIM_THREADS`.
    let workers = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4);
    let a = exp_covariance(n, 24.0, 1e-3);
    println!(
        "matrix: exponential covariance, n = {n}, tile = {b} ({} tiles)",
        (n / b) * (n / b + 1) / 2
    );
    println!(
        "{:<10} {:>10} {:>14} {:>12} {:>10} {:>6} {:>12}",
        "variant", "bytes", "residual", "seconds", "GFlop/s", "lanes", "census H/S/D"
    );

    let nt = n / b;
    let policies = [
        PrecisionPolicy::dp(),
        PrecisionPolicy::dp_sp(),
        PrecisionPolicy::dp_sp_hp(nt),
        PrecisionPolicy::dp_hp(),
    ];
    let mut dp_seconds = None;
    for policy in policies {
        let mut tm = TiledMatrix::from_dense(&a, n, b, &policy);
        let bytes = tm.payload_bytes();
        let census = tm.precision_census();
        let (stats, trace) = parallel_tile_cholesky(&mut tm, workers, SchedulerKind::PriorityHeap)
            .expect("SPD covariance");
        let res = factorization_residual(&a, &tm);
        println!(
            "{:<10} {:>10} {:>14.3e} {:>12.4} {:>10.2} {:>6} {:>4}/{}/{}",
            policy.label(),
            bytes,
            res,
            stats.seconds,
            stats.gflops(),
            trace.workers,
            census[0],
            census[1],
            census[2],
        );
        if policy == PrecisionPolicy::dp() {
            dp_seconds = Some(stats.seconds);
        }
        // Sanity: utilization should be non-trivial under the task runtime.
        assert!(trace.utilization() > 0.05, "runtime utilization too low");
        // Accuracy envelope: HP-heavy variants still factor a
        // well-conditioned covariance to percent-level residual.
        assert!(res < 0.05, "{}: residual {res}", policy.label());
    }
    println!(
        "(DP reference time: {:.4}s — on this CPU an SP tile runs at up to twice\n\
         the DP rate (twice the lanes per vector) and an HP tile pays for\n\
         software binary16 rounding; the *memory* shrinks by up to 4×, and the\n\
         GPU-rate speedups are modeled by exaclim-cluster, see\n\
         `cargo run -p exaclim-bench --bin fig6`)",
        dp_seconds.unwrap()
    );
}
