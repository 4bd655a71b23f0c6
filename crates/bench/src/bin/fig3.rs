//! Figure 3: the emulator design-and-development pipeline, executed for
//! real with per-stage wall-clock timing — the dynamic counterpart of the
//! paper's overview diagram.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin fig3
//! ```

use exaclim::{factor_covariance, CovarianceFactor};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_linalg::precision::PrecisionPolicy;
use exaclim_sht::{analysis_batch, synthesis_batch, HarmonicCoeffs, ShtPlan};
use exaclim_stats::covariance::empirical_covariance;
use exaclim_stats::emulate::CoefficientSampler;
use exaclim_stats::forcing::ForcingSeries;
use exaclim_stats::trend::{fit_grid, TrendConfig};
use exaclim_stats::var::fit_diagonal_var;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let lmax = 10;
    let t_max = 3 * 365;
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(14));
    let data = generator.generate_member(0, t_max);
    let npoints = data.npoints;
    println!("== Figure 3 pipeline, executed (L={lmax}, T={t_max}, {npoints} points) ==");
    let mut total = 0.0;
    let mut stage = |name: &str, secs: f64| {
        total += secs;
        println!("{name:<46} {secs:>9.3}s");
    };

    // Stage 1: mean trend + standardization (eq. 2).
    let t0 = Instant::now();
    let forcing = ForcingSeries::historical_like(
        data.start_year,
        data.start_year + (t_max / 365 + 2) as i64,
        30,
    );
    let trend_cfg = TrendConfig::daily(data.start_year);
    let fit = fit_grid(&data.data, t_max, npoints, &trend_cfg, &forcing);
    stage(
        "1. trend fit + residual standardization",
        t0.elapsed().as_secs_f64(),
    );

    // Stage 2: forward SHT of every slice (eqs. 4–8).
    let t0 = Instant::now();
    let plan = ShtPlan::equiangular(lmax, data.ntheta, data.nphi);
    let coeff_sets = analysis_batch(&plan, &fit.residuals, t_max);
    let series: Vec<Vec<f64>> = coeff_sets
        .iter()
        .map(HarmonicCoeffs::to_real_vector)
        .collect();
    stage(
        "2. forward SHT (Wigner/FFT engine, batched)",
        t0.elapsed().as_secs_f64(),
    );

    // Stage 3: VAR(P) temporal model.
    let t0 = Instant::now();
    let var = fit_diagonal_var(&series, 3);
    let xi = var.innovations(&series);
    stage(
        "3. diagonal VAR(3) fit + innovations",
        t0.elapsed().as_secs_f64(),
    );

    // Stage 4: empirical covariance (eq. 9).
    let t0 = Instant::now();
    let u = empirical_covariance(&xi);
    stage(
        "4. empirical covariance U (eq. 9)",
        t0.elapsed().as_secs_f64(),
    );

    // Stage 5: mixed-precision tile Cholesky on the task runtime, which is
    // also the probe of the SPD repair — `train`'s Stage 4.
    let t0 = Instant::now();
    let dim = lmax * lmax;
    let CovarianceFactor {
        tiles,
        jitter,
        stats,
        trace,
    } = factor_covariance(u, lmax, &PrecisionPolicy::dp_hp(), 4).unwrap();
    stage(
        "5. DP/HP tile Cholesky + SPD repair (task DAG)",
        t0.elapsed().as_secs_f64(),
    );
    let factor = tiles.to_dense_lower();

    // Stage 6: emulation — sample, VAR forward, inverse SHT.
    let t0 = Instant::now();
    let sampler = CoefficientSampler::new(var, factor, dim);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let path = sampler.sample_path(t_max, &mut rng);
    let sets: Vec<HarmonicCoeffs> = path
        .iter()
        .map(|f| HarmonicCoeffs::from_real_vector(lmax, f))
        .collect();
    let fields = synthesis_batch(&plan, &sets);
    stage(
        "6. emulate: ξ=Vη → VAR → inverse SHT",
        t0.elapsed().as_secs_f64(),
    );

    println!("{:-<58}", "");
    println!("{:<46} {total:>9.3}s", "total");
    println!();
    println!(
        "covariance jitter: {jitter:.2e}; Cholesky kernels \
         (potrf,trsm,syrk,gemm) = {:?}; runtime utilization {:.0}%",
        stats.kernel_counts,
        100.0 * trace.utilization()
    );
    assert_eq!(fields.len(), t_max * npoints);
    assert!(fields.iter().all(|v| v.is_finite()));
}
