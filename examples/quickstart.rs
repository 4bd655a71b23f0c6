//! Quickstart: train a climate emulator on a synthetic ERA5-like dataset,
//! generate an emulation, and verify statistical consistency.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use exaclim::{validate_consistency, ClimateEmulator, EmulatorConfig};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};

fn main() {
    // 1. A synthetic "simulation archive": 3 years of daily surface
    //    temperature on a small equiangular grid (the stand-in for ERA5 —
    //    the `exaclim_climate` crate docs give the substitution rationale).
    let lmax_data = 12;
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(lmax_data));
    let training = generator.generate_member(0, 3 * 365);
    println!(
        "training data: {} days × {} grid points ({}×{} grid)",
        training.t_max, training.npoints, training.ntheta, training.nphi
    );

    // 2. Train the emulator (trend fit → SHT → VAR(P) → covariance →
    //    mixed-precision Cholesky), all per the paper's Figure 3 pipeline.
    let config = EmulatorConfig::small(8);
    let t0 = std::time::Instant::now();
    let emulator = ClimateEmulator::train(&training, config).expect("training succeeds");
    println!(
        "trained in {:.2}s: L={} (L² = {} coefficient channels), VAR({}), jitter {:.2e}",
        t0.elapsed().as_secs_f64(),
        emulator.config.lmax,
        emulator.var.dim(),
        emulator.config.var_order,
        emulator.jitter
    );

    // 3. Emulate a new 3-year realization in a fraction of the cost of
    //    re-running the "simulation".
    let t0 = std::time::Instant::now();
    let emulation = emulator.emulate(3 * 365, 2024).expect("emulation succeeds");
    println!(
        "emulated {} days in {:.2}s",
        emulation.t_max,
        t0.elapsed().as_secs_f64()
    );

    // 4. Statistical consistency (the Figure 2 claim).
    let report = validate_consistency(&training, &emulation);
    println!("consistency report:");
    println!(
        "  mean nRMSE             {:.4}  (< 0.15)",
        report.mean_nrmse
    );
    println!(
        "  std ratio (median)     {:.4}  (≈ 1)",
        report.std_ratio_median
    );
    println!(
        "  mean-field correlation {:.4}  (> 0.98)",
        report.mean_field_correlation
    );
    println!(
        "  std-field correlation  {:.4}  (> 0.6)",
        report.std_field_correlation
    );
    println!(
        "  |Δ acf(1)|             {:.4}  (< 0.25)",
        report.acf1_abs_diff
    );
    println!("  PASSES: {}", report.passes());

    // 5. Storage ledger: what replacing a 10-member archive saves.
    let model = emulator.storage_model(10, training.t_max as u64);
    println!(
        "storage: archive {:.1} MB vs emulator {:.1} MB → ratio {:.1}×",
        model.ensemble_bytes() / 1e6,
        emulator.parameter_bytes() as f64 / 1e6,
        model.ensemble_bytes() / emulator.parameter_bytes() as f64
    );
    assert!(report.passes(), "quickstart must demonstrate consistency");
}
