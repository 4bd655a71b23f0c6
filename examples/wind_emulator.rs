//! A non-Gaussian variable through the pipeline: wind-speed-like fields via
//! the Tukey g-and-h marginal transform (paper ref. \[21\], and the §VI
//! "multi-variate emulators" direction).
//!
//! Wind speed is right-skewed and heavy-tailed; the g-and-h warp maps a
//! Gaussian core to that marginal. Strategy: de-warp the data to a Gaussian
//! core, run the standard exaclim pipeline, then re-warp emulated fields.
//!
//! ```text
//! cargo run --release --example wind_emulator
//! ```

use exaclim::{ClimateEmulator, EmulatorConfig};
use exaclim_climate::generator::Dataset;
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_mathkit::stats::quantiles;
use exaclim_stats::tukey::{fit_tukey_gh, TukeyGH};

/// Build synthetic "wind" data: warp the standardized stochastic part of a
/// temperature-like simulation through a skewed, heavy-tailed g-and-h.
fn make_wind(base: &Dataset, warp: &TukeyGH) -> Dataset {
    let mut wind = base.clone();
    // Standardize per-location, warp, and shift to wind-like magnitudes.
    let np = base.npoints;
    let mut mean = vec![0.0f64; np];
    let mut sd = vec![0.0f64; np];
    for t in 0..base.t_max {
        for p in 0..np {
            mean[p] += base.data[t * np + p];
        }
    }
    mean.iter_mut().for_each(|m| *m /= base.t_max as f64);
    for t in 0..base.t_max {
        for p in 0..np {
            let d = base.data[t * np + p] - mean[p];
            sd[p] += d * d;
        }
    }
    sd.iter_mut()
        .for_each(|s| *s = (*s / base.t_max as f64).sqrt().max(1e-9));
    for t in 0..base.t_max {
        for p in 0..np {
            let z = (base.data[t * np + p] - mean[p]) / sd[p];
            wind.data[t * np + p] = warp.forward(z);
        }
    }
    wind
}

fn main() {
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    let base = generator.generate_member(0, 3 * 365);
    // "True" wind marginal: skewed (g) and heavy-tailed (h), ~8 m/s mean.
    let truth = TukeyGH {
        xi: 8.0,
        omega: 3.0,
        g: 0.4,
        h: 0.08,
    };
    let wind = make_wind(&base, &truth);

    // 1. Fit the marginal on the pooled wind sample.
    let fitted = fit_tukey_gh(&wind.data);
    println!(
        "fitted g-and-h: xi={:.2} (true 8.0), omega={:.2} (3.0), g={:.2} (0.40), h={:.3} (0.08)",
        fitted.xi, fitted.omega, fitted.g, fitted.h
    );

    // 2. De-warp to a Gaussian core and train the standard emulator.
    let mut core = wind.clone();
    for v in core.data.iter_mut() {
        *v = fitted.inverse(*v);
    }
    let emulator = ClimateEmulator::train(&core, EmulatorConfig::small(8))
        .expect("training on the Gaussian core succeeds");

    // 3. Emulate the core and re-warp to wind space.
    let mut emulated = emulator.emulate(3 * 365, 77).expect("emulation succeeds");
    for v in emulated.data.iter_mut() {
        *v = fitted.forward(*v);
    }

    // 4. Compare wind-space quantiles — skewness and tails must survive.
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "source", "q05", "q50", "q95", "q99", "mean"
    );
    // One selection per dataset finds all four quantiles.
    let summary = |d: &Dataset| -> ([f64; 4], f64) {
        let q = quantiles(&mut d.data.clone(), &[0.05, 0.50, 0.95, 0.99]);
        let q = q.try_into().expect("four quantiles");
        (q, d.data.iter().sum::<f64>() / d.data.len() as f64)
    };
    let (q_sim, mean_sim) = summary(&wind);
    let (q_emu, mean_emu) = summary(&emulated);
    for (name, q, mean) in [
        ("simulation", q_sim, mean_sim),
        ("emulation", q_emu, mean_emu),
    ] {
        println!(
            "{:<12} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            name, q[0], q[1], q[2], q[3], mean
        );
    }
    let (q99_sim, q99_emu) = (q_sim[3], q_emu[3]);
    assert!(
        (q99_emu - q99_sim).abs() / q99_sim < 0.2,
        "heavy tail must be reproduced: {q99_emu} vs {q99_sim}"
    );
    // Right skew: mean > median in both.
    assert!(mean_sim > q_sim[1], "simulated wind is right-skewed");
    assert!(mean_emu > q_emu[1], "emulated wind keeps the right skew");
    println!("\nnon-Gaussian marginal reproduced (skew + heavy tail) — the [21]-style wind pathway works.");
}
