//! Figure 2: hourly simulations vs emulations for two days, reported as
//! per-field statistics plus the statistical-consistency scorecard.
//!
//! The paper plots 24-hour surface-temperature maps from ERA5 and from the
//! emulator for Jan 1 and Jun 1, 2019. Here the synthetic-ERA5 substitute
//! (`exaclim_climate`'s crate docs) is used at an hourly cadence; "maps
//! match statistically" is quantified instead of eyeballed.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin fig2
//! ```

use exaclim::{validate_consistency, ClimateEmulator, EmulatorConfig};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_mathkit::stats::OnlineStats;

fn main() {
    // Hourly generator: τ = 8760 activates the diurnal harmonic.
    let mut gen_cfg = SyntheticEra5Config::small_daily(12);
    gen_cfg.tau = 8760;
    gen_cfg.ar_phi = 0.9; // hourly weather is more persistent
    let generator = SyntheticEra5::new(gen_cfg);
    // One year of hourly training data.
    let training = generator.generate_member(0, 8760);

    let mut cfg = EmulatorConfig::small(8);
    cfg.tau = 8760;
    let emulator = ClimateEmulator::train(&training, cfg).expect("training succeeds");
    let emulation = emulator.emulate(8760, 2019).expect("emulation succeeds");

    // "Jan 1" = hours 0..24; "Jun 1" = hours 3624..3648 (day 151).
    for (label, start) in [("Jan 01", 0usize), ("Jun 01", 151 * 24)] {
        println!("== {label} (24 hourly fields) ==");
        println!(
            "{:<12} {:>10} {:>9} {:>9} {:>9} {:>11}",
            "source", "mean (K)", "std (K)", "min (K)", "max (K)", "diurnal (K)"
        );
        for (name, d) in [("simulation", &training), ("emulation", &emulation)] {
            let mut st = OnlineStats::new();
            let mut hour_means = Vec::with_capacity(24);
            for h in 0..24 {
                let f = d.field(start + h);
                st.extend(f);
                hour_means.push(f.iter().sum::<f64>() / f.len() as f64);
            }
            let diurnal = hour_means.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - hour_means.iter().cloned().fold(f64::INFINITY, f64::min);
            println!(
                "{:<12} {:>10.2} {:>9.2} {:>9.1} {:>9.1} {:>11.2}",
                name,
                st.mean(),
                st.std_dev(),
                st.min(),
                st.max(),
                diurnal
            );
        }
        println!();
    }

    let report = validate_consistency(&training, &emulation);
    println!("consistency scorecard (full year, hourly):");
    println!("  mean nRMSE             {:.4}", report.mean_nrmse);
    println!("  std ratio (median)     {:.4}", report.std_ratio_median);
    println!(
        "  mean-field correlation {:.4}",
        report.mean_field_correlation
    );
    println!(
        "  std-field correlation  {:.4}",
        report.std_field_correlation
    );
    println!("  |Δ acf(1)|             {:.4}", report.acf1_abs_diff);
    println!("  PASSES: {}", report.passes());
    assert!(
        report.passes(),
        "Figure 2 claim: statistically consistent emulation"
    );
}
