//! Statistical consistency between emulations and training simulations.
//!
//! The paper (Figures 2 and 4, and ref. \[23\]) claims emulations are
//! *statistically consistent* with the simulations: same per-location
//! climatology, variability, and temporal persistence — without matching
//! weather realizations point for point. This module quantifies that.

use exaclim_climate::generator::Dataset;
use exaclim_mathkit::stats::{acf, correlation, quantiles_streamed, variance, variance_streamed};
use exaclim_runtime::pool;
use serde::{Deserialize, Serialize};

/// Summary of simulation-vs-emulation statistical agreement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConsistencyReport {
    /// RMSE of per-location time means, normalized by the simulation's
    /// spatial standard deviation of means.
    pub mean_nrmse: f64,
    /// Median over locations of emulated/simulated standard-deviation ratio.
    pub std_ratio_median: f64,
    /// Correlation across locations of the per-location time means.
    pub mean_field_correlation: f64,
    /// Correlation across locations of per-location standard deviations.
    pub std_field_correlation: f64,
    /// |lag-1 autocorrelation difference| of the global-mean series.
    pub acf1_abs_diff: f64,
    /// Largest quantile mismatch of the pooled anomaly distributions over
    /// q ∈ {1%, 5%, 25%, 50%, 75%, 95%, 99%}, in simulation-anomaly
    /// standard deviations — an extremes/Q-Q diagnostic (heatwaves and cold
    /// snaps live in these tails).
    pub max_quantile_gap: f64,
}

impl ConsistencyReport {
    /// The default acceptance thresholds used by the test suite and the
    /// figure harnesses.
    pub fn passes(&self) -> bool {
        self.mean_nrmse < 0.15
            && (self.std_ratio_median - 1.0).abs() < 0.3
            && self.mean_field_correlation > 0.98
            && self.std_field_correlation > 0.6
            && self.acf1_abs_diff < 0.25
            && self.max_quantile_gap < 0.5
    }
}

/// Time mean and standard deviation of every location's series — `mean`
/// and `variance(..).sqrt()` of [`exaclim_mathkit::stats`] per location,
/// accumulated for all locations at once, one field (row) at a time. Each
/// location's sums still run over ascending `t` from `−0.0`, as
/// `Iterator::sum` would over its gathered series.
fn location_moments(d: &Dataset) -> (Vec<f64>, Vec<f64>) {
    let mut means = vec![-0.0f64; d.npoints];
    for t in 0..d.t_max {
        for (m, v) in means.iter_mut().zip(d.field(t)) {
            *m += v;
        }
    }
    means.iter_mut().for_each(|m| *m /= d.t_max as f64);
    let mut stds = vec![-0.0f64; d.npoints];
    for t in 0..d.t_max {
        for ((s, m), v) in stds.iter_mut().zip(&means).zip(d.field(t)) {
            *s += (v - m) * (v - m);
        }
    }
    stds.iter_mut()
        .for_each(|s| *s = (*s / (d.t_max - 1) as f64).sqrt());
    (means, stds)
}

fn global_mean_series(d: &Dataset) -> Vec<f64> {
    (0..d.t_max).map(|t| d.field_mean(t)).collect()
}

/// The quantiles of the pooled anomaly Q-Q check.
const QS: [f64; 7] = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99];

/// Every location's anomaly `v − mₚ` from its own time mean, time-major:
/// pooled, their quantiles measure variability shape, not geography.
/// Computed as read, so no T·npoints vector of them ever exists.
fn anomalies<'a>(d: &'a Dataset, means: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
    (0..d.t_max).flat_map(move |t| d.field(t).iter().zip(means).map(|(v, m)| v - m))
}

/// What [`validate_consistency`] reads of one dataset.
struct Summary {
    means: Vec<f64>,
    stds: Vec<f64>,
    global_means: Vec<f64>,
    /// The pooled anomalies' quantiles at [`QS`].
    quantiles: Vec<f64>,
}

impl Summary {
    fn of(d: &Dataset) -> Self {
        let (means, stds) = location_moments(d);
        let quantiles = quantiles_streamed(|| anomalies(d, &means), &QS);
        Self {
            global_means: global_mean_series(d),
            means,
            stds,
            quantiles,
        }
    }
}

/// Compare an emulation against its training simulation.
///
/// The two datasets are summarized at once, one on each side of a pool
/// `join`; the simulation's side also measures the anomaly scale. Each
/// number is the one the summaries computed one after the other would
/// give: every sum runs over the same values in the same order.
///
/// Non-finite input does not panic: NaN or ±∞ anywhere in either dataset
/// propagates into the report's fields, and [`ConsistencyReport::passes`]
/// is then false.
pub fn validate_consistency(simulation: &Dataset, emulation: &Dataset) -> ConsistencyReport {
    assert_eq!(simulation.npoints, emulation.npoints, "grids must match");
    assert!(
        simulation.t_max >= 2 && emulation.t_max >= 2,
        "need at least two time steps per dataset"
    );
    let ((sim, anom_scale), emu) = pool::global().join(
        || {
            let sim = Summary::of(simulation);
            let len = simulation.t_max * simulation.npoints;
            let var = variance_streamed(|| anomalies(simulation, &sim.means), len);
            (sim, var.sqrt().max(1e-12))
        },
        || Summary::of(emulation),
    );

    let spatial_scale = variance(&sim.means).sqrt().max(1e-12);
    let mean_rmse = exaclim_mathkit::stats::rmse(&sim.means, &emu.means);

    let mut ratios: Vec<f64> = sim
        .stds
        .iter()
        .zip(&emu.stds)
        .filter(|(s, _)| **s > 1e-9)
        .map(|(s, e)| e / s)
        .collect();
    let std_ratio_median = if ratios.is_empty() {
        1.0
    } else {
        let mid = ratios.len() / 2;
        *ratios.select_nth_unstable_by(mid, f64::total_cmp).1
    };

    let lag = 1usize;
    let a_s = acf(&sim.global_means, lag)[1];
    let a_e = acf(&emu.global_means, lag)[1];

    let mut max_gap = 0.0f64;
    for (s, e) in sim.quantiles.iter().zip(&emu.quantiles) {
        let gap = (s - e).abs() / anom_scale;
        if gap > max_gap || gap.is_nan() {
            max_gap = gap;
        }
    }

    ConsistencyReport {
        mean_nrmse: mean_rmse / spatial_scale,
        std_ratio_median,
        mean_field_correlation: correlation(&sim.means, &emu.means),
        std_field_correlation: correlation(&sim.stds, &emu.stds),
        acf1_abs_diff: (a_s - a_e).abs(),
        max_quantile_gap: max_gap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmulatorConfig;
    use crate::emulator::ClimateEmulator;
    use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
    use exaclim_mathkit::stats::quantiles;

    /// `validate_consistency` as it ran before its summaries were streamed
    /// and joined: both summaries one after the other, and each pooled
    /// anomaly vector materialized for its variance and its quantiles.
    /// The oracle of the streamed one.
    fn reference_consistency(simulation: &Dataset, emulation: &Dataset) -> ConsistencyReport {
        let (sim_means, sim_stds) = location_moments(simulation);
        let (emu_means, emu_stds) = location_moments(emulation);

        let spatial_scale = variance(&sim_means).sqrt().max(1e-12);
        let mean_rmse = exaclim_mathkit::stats::rmse(&sim_means, &emu_means);

        let mut ratios: Vec<f64> = sim_stds
            .iter()
            .zip(&emu_stds)
            .filter(|(s, _)| **s > 1e-9)
            .map(|(s, e)| e / s)
            .collect();
        let std_ratio_median = if ratios.is_empty() {
            1.0
        } else {
            let mid = ratios.len() / 2;
            *ratios.select_nth_unstable_by(mid, f64::total_cmp).1
        };

        let gs = global_mean_series(simulation);
        let ge = global_mean_series(emulation);
        let a_s = acf(&gs, 1)[1];
        let a_e = acf(&ge, 1)[1];

        let anomalies = |d: &Dataset, means: &[f64]| -> Vec<f64> {
            let mut a = Vec::with_capacity(d.data.len());
            for t in 0..d.t_max {
                a.extend(d.field(t).iter().zip(means).map(|(v, m)| v - m));
            }
            a
        };
        let mut sim_anom = anomalies(simulation, &sim_means);
        let anom_scale = variance(&sim_anom).sqrt().max(1e-12);
        let sim_q = quantiles(&mut sim_anom, &QS);
        drop(sim_anom);
        let emu_q = quantiles(&mut anomalies(emulation, &emu_means), &QS);
        let mut max_gap = 0.0f64;
        for (s, e) in sim_q.iter().zip(&emu_q) {
            let gap = (s - e).abs() / anom_scale;
            if gap > max_gap || gap.is_nan() {
                max_gap = gap;
            }
        }

        ConsistencyReport {
            mean_nrmse: mean_rmse / spatial_scale,
            std_ratio_median,
            mean_field_correlation: correlation(&sim_means, &emu_means),
            std_field_correlation: correlation(&sim_stds, &emu_stds),
            acf1_abs_diff: (a_s - a_e).abs(),
            max_quantile_gap: max_gap,
        }
    }

    /// Every field of `validate_consistency(a, b)` has the oracle's bits.
    fn assert_matches_reference(a: &Dataset, b: &Dataset, what: &str) {
        let (got, want) = (validate_consistency(a, b), reference_consistency(a, b));
        let bits = |r: &ConsistencyReport| {
            [
                r.mean_nrmse,
                r.std_ratio_median,
                r.mean_field_correlation,
                r.std_field_correlation,
                r.acf1_abs_diff,
                r.max_quantile_gap,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(&got), bits(&want), "{what}: {got:?} vs {want:?}");
    }

    #[test]
    fn streamed_summaries_match_the_materialised_oracle_bit_for_bit() {
        for lmax in [8, 12, 16] {
            let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(lmax));
            let training = gen.generate_member(0, 365);
            let em = ClimateEmulator::train(&training, EmulatorConfig::small(lmax)).unwrap();
            let emulation = em.emulate(365, 5).unwrap();
            assert_matches_reference(&training, &emulation, &format!("L = {lmax}"));
        }
        // The poisoned datasets of `non_finite_data_fails_without_panicking`.
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
        let d = gen.generate_member(0, 120);
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = d.clone();
            bad.data[37 * d.npoints + 5] = poison;
            assert_matches_reference(&d, &bad, &format!("{poison} in the emulation"));
            assert_matches_reference(&bad, &d, &format!("{poison} in the simulation"));
            assert_matches_reference(&bad, &bad, &format!("{poison} in both"));
        }
    }

    #[test]
    fn emulation_is_statistically_consistent_with_simulation() {
        // The headline scientific claim at test scale: train on 3 years,
        // emulate 3 years, compare statistics (Figure 2's "statistically
        // consistent" caption).
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
        let training = gen.generate_member(0, 3 * 365);
        let em = ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap();
        let emulation = em.emulate(3 * 365, 99).unwrap();
        let report = validate_consistency(&training, &emulation);
        assert!(report.passes(), "consistency failed: {report:?}");
    }

    #[test]
    fn self_comparison_is_perfect() {
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
        let d = gen.generate_member(0, 120);
        let r = validate_consistency(&d, &d);
        assert!(r.mean_nrmse < 1e-12);
        assert!((r.std_ratio_median - 1.0).abs() < 1e-12);
        assert!(r.mean_field_correlation > 0.999999);
        assert!(r.acf1_abs_diff < 1e-12);
        assert!(r.max_quantile_gap < 1e-12);
        assert!(r.passes());
    }

    #[test]
    fn shuffled_emulation_fails_consistency() {
        // A "wrong" emulation (fields from a different climate: +20 K)
        // must fail the mean check.
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
        let d = gen.generate_member(0, 120);
        let mut bad = d.clone();
        for v in bad.data.iter_mut() {
            *v += 20.0;
        }
        let r = validate_consistency(&d, &bad);
        assert!(!r.passes(), "shifted climate must fail: {r:?}");
    }

    #[test]
    fn non_finite_data_fails_without_panicking() {
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
        let d = gen.generate_member(0, 120);
        assert!(validate_consistency(&d, &d).passes());
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = d.clone();
            bad.data[37 * d.npoints + 5] = poison;
            for r in [
                validate_consistency(&d, &bad),
                validate_consistency(&bad, &d),
                validate_consistency(&bad, &bad),
            ] {
                assert!(!r.passes(), "{poison} must fail: {r:?}");
                assert!(!r.mean_nrmse.is_finite(), "{poison}: {r:?}");
            }
        }
    }

    #[test]
    fn inflated_variability_fails_the_quantile_gap() {
        // Same means, 3× the anomaly amplitude: means/correlations stay
        // fine but the Q-Q diagnostic must reject.
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
        let d = gen.generate_member(0, 200);
        let np = d.npoints;
        let mut means = vec![0.0f64; np];
        for t in 0..d.t_max {
            for p in 0..np {
                means[p] += d.data[t * np + p];
            }
        }
        means.iter_mut().for_each(|m| *m /= d.t_max as f64);
        let mut bad = d.clone();
        for t in 0..d.t_max {
            for p in 0..np {
                let v = d.data[t * np + p];
                bad.data[t * np + p] = means[p] + 3.0 * (v - means[p]);
            }
        }
        let r = validate_consistency(&d, &bad);
        assert!(r.max_quantile_gap > 0.5, "gap {}", r.max_quantile_gap);
        assert!(!r.passes());
    }
}
