//! Figure 4: emulated fields with the covariance factor computed at
//! DP, DP/SP, and DP/HP — statistical consistency must survive precision
//! demotion of the Cholesky.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin fig4
//! ```

use exaclim::{validate_consistency, ClimateEmulator, EmulatorConfig};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_linalg::precision::Variant;

fn main() {
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    let training = generator.generate_member(0, 3 * 365);

    println!("== Figure 4: emulation quality vs covariance-factor precision ==");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "variant", "mean nRMSE", "std ratio", "mean corr", "|Δ acf1|", "passes"
    );
    let nt = 64 / 16;
    let mut all_pass = true;
    for v in Variant::all() {
        let mut cfg = EmulatorConfig::small(8);
        cfg.precision = v.policy(nt);
        cfg.tile = 16; // 4×4 tiles over the 64×64 covariance
        let emulator = ClimateEmulator::train(&training, cfg).expect("training succeeds");
        let emulation = emulator.emulate(3 * 365, 44).expect("emulation succeeds");
        let r = validate_consistency(&training, &emulation);
        println!(
            "{:<10} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>10}",
            v.label(),
            r.mean_nrmse,
            r.std_ratio_median,
            r.mean_field_correlation,
            r.acf1_abs_diff,
            r.passes()
        );
        all_pass &= r.passes();
    }
    println!();
    println!(
        "Paper claim (Fig. 4): emulations remain statistically consistent at\n\
         every precision variant of the tile Cholesky — {}",
        if all_pass {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
    assert!(all_pass);
}
