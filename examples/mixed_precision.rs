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

/// Factorizations per variant. The fastest is reported, so that DP, which
/// runs first, does not also carry the worker pool's start-up.
const RUNS: usize = 3;

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
        "seconds: the fastest of {RUNS} factorizations; × DP: DP's seconds over the variant's"
    );
    println!(
        "{:<10} {:>10} {:>14} {:>12} {:>10} {:>7} {:>6} {:>12}",
        "variant", "bytes", "residual", "seconds", "GFlop/s", "× DP", "lanes", "census H/S/D"
    );

    let nt = n / b;
    let policies = [
        PrecisionPolicy::dp(),
        PrecisionPolicy::dp_sp(),
        PrecisionPolicy::dp_sp_hp(nt),
        PrecisionPolicy::dp_hp(),
    ];
    let mut dp_seconds = None;
    let mut sp_speedup = None;
    for policy in policies {
        let (stats, lanes, tm) = (0..RUNS)
            .map(|_| {
                let mut tm = TiledMatrix::from_dense(&a, n, b, &policy);
                let (stats, trace) =
                    parallel_tile_cholesky(&mut tm, workers, SchedulerKind::PriorityHeap)
                        .expect("SPD covariance");
                // Sanity: utilization should be non-trivial under the task runtime.
                assert!(trace.utilization() > 0.05, "runtime utilization too low");
                (stats, trace.workers, tm)
            })
            .min_by(|x, y| x.0.seconds.total_cmp(&y.0.seconds))
            .expect("RUNS > 0");
        let census = tm.precision_census();
        let res = factorization_residual(&a, &tm);
        let dp = *dp_seconds.get_or_insert(stats.seconds);
        let speedup = dp / stats.seconds;
        println!(
            "{:<10} {:>10} {:>14.3e} {:>12.4} {:>10.2} {:>6.2}× {:>6} {:>4}/{}/{}",
            policy.label(),
            tm.payload_bytes(),
            res,
            stats.seconds,
            stats.gflops(),
            speedup,
            lanes,
            census[0],
            census[1],
            census[2],
        );
        if policy == PrecisionPolicy::dp_sp() {
            sp_speedup = Some(speedup);
        }
        // Accuracy envelope: HP-heavy variants still factor a
        // well-conditioned covariance to percent-level residual.
        assert!(res < 0.05, "{}: residual {res}", policy.label());
    }
    println!(
        "(DP reference time: {:.4}s; DP/SP ran {:.2}× as fast here. SP and HP tiles\n\
         compute in f32, in the same vector registers as DP with twice the lanes,\n\
         so 2× is this CPU's ceiling; HP tiles store binary16, converted on F16C\n\
         where the CPU has it, and the *memory* shrinks by up to 4×. The GPU-rate\n\
         speedups are modeled by exaclim-cluster, see\n\
         `cargo run -p exaclim-bench --bin fig6`)",
        dp_seconds.expect("DP runs first"),
        sp_speedup.expect("DP/SP is one of the variants"),
    );
}
