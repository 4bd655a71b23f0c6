//! Radiative-forcing trajectories.
//!
//! The mean trend of eq. (2) regresses temperature on the annual radiative
//! forcing `x_{⌈t/τ⌉}` and its exponentially weighted past. ERA5-era
//! historical forcing is approximated by a smooth CO₂-dominated ramp; any
//! user-supplied series can be wrapped in [`ForcingSeries`].

use serde::{Deserialize, Serialize};

/// An annual radiative-forcing series covering `start_year ..= end_year`,
/// with spin-up history so lagged regressors are defined from the first
/// training step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForcingSeries {
    start_year: i64,
    values: Vec<f64>,
}

impl ForcingSeries {
    /// Wrap explicit annual values beginning at `start_year`.
    pub fn new(start_year: i64, values: Vec<f64>) -> Self {
        assert!(!values.is_empty());
        Self { start_year, values }
    }

    /// Synthetic historical-like forcing: logarithmic CO₂ ramp
    /// `F(y) = 5.35 · ln(C(y)/278)` with `C(y)` following an accelerating
    /// concentration path, over `start..=end` with `spinup` extra years of
    /// history before `start`.
    pub fn historical_like(start: i64, end: i64, spinup: usize) -> Self {
        assert!(end >= start);
        let first = start - spinup as i64;
        let values = (first..=end)
            .map(|y| {
                // Concentration: 278 ppm pre-industrial, accelerating growth
                // reaching ~420 ppm by 2022.
                let t = (y - 1850) as f64;
                let conc = 278.0 + 145.0 * (t / 172.0).max(0.0).powf(2.2);
                5.35 * (conc / 278.0_f64).ln()
            })
            .collect();
        Self {
            start_year: first,
            values,
        }
    }

    /// First year with data (including spin-up).
    pub fn first_year(&self) -> i64 {
        self.start_year
    }

    /// Last year with data.
    pub fn last_year(&self) -> i64 {
        self.start_year + self.values.len() as i64 - 1
    }

    /// Forcing at `year`, clamped to the series ends.
    pub fn at(&self, year: i64) -> f64 {
        let idx = (year - self.start_year).clamp(0, self.values.len() as i64 - 1);
        self.values[idx as usize]
    }

    /// The exponentially lagged regressor of eq. (2),
    /// `Lag_ρ(y) = Σ_{s≥1} ρ^{s−1} x_{y−s}`, for every year of
    /// `start..=end`: one pass of the recursion `Lag(y) = x_{y−1} +
    /// ρ·Lag(y−1)` over the available history.
    pub fn lagged_series(&self, start: i64, end: i64, rho: f64) -> Vec<f64> {
        assert!(end >= start);
        let mut out = Vec::with_capacity((end - start + 1) as usize);
        let mut lag = 0.0;
        for y in (self.start_year + 1)..=end {
            lag = self.at(y - 1) + rho * lag;
            if y >= start {
                out.push(lag);
            }
        }
        // Degenerate: start == series start (no history) — pad front.
        while out.len() < (end - start + 1) as usize {
            out.insert(0, 0.0);
        }
        out
    }
}

/// `Lag_ρ` at one year, recomputed from the series start: the pointwise
/// oracle of `lagged_series`.
#[cfg(test)]
impl ForcingSeries {
    fn lagged(&self, year: i64, rho: f64) -> f64 {
        assert!((0.0..1.0).contains(&rho), "ρ must be in [0,1)");
        let mut lag = 0.0;
        let from = self.start_year + 1;
        for y in from..=year {
            lag = self.at(y - 1) + rho * lag;
        }
        lag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn historical_ramp_is_monotone_recent() {
        let f = ForcingSeries::historical_like(1940, 2022, 10);
        assert_eq!(f.first_year(), 1930);
        assert_eq!(f.last_year(), 2022);
        for y in 1950..2022 {
            assert!(f.at(y + 1) > f.at(y), "forcing must grow after 1950");
        }
        // Order of magnitude: ~2.2 W/m² by 2022 for CO₂ alone.
        assert!(
            f.at(2022) > 1.5 && f.at(2022) < 3.5,
            "F(2022)={}",
            f.at(2022)
        );
    }

    #[test]
    fn clamping_at_ends() {
        let f = ForcingSeries::new(2000, vec![1.0, 2.0, 3.0]);
        assert_eq!(f.at(1990), 1.0);
        assert_eq!(f.at(2002), 3.0);
        assert_eq!(f.at(2050), 3.0);
    }

    #[test]
    fn lagged_matches_direct_sum() {
        let f = ForcingSeries::new(0, (0..50).map(|i| (i as f64 * 0.3).sin() + 2.0).collect());
        let rho: f64 = 0.6;
        let year = 30;
        // Direct: Σ_{s=1..} ρ^{s-1} x_{year-s} down to the series start.
        let mut direct = 0.0;
        for s in 1..=30 {
            direct += rho.powi(s - 1) * f.at(year - s as i64);
        }
        // Tail below series start is clamped to x_0; account for it.
        let tail: f64 = (31..200).map(|s| rho.powi(s - 1) * f.at(0)).sum();
        let got = f.lagged(year, rho);
        assert!((got - direct).abs() < tail + 1e-9, "{got} vs {direct}");
    }

    #[test]
    fn lagged_series_matches_pointwise() {
        let f = ForcingSeries::historical_like(1980, 2000, 5);
        let rho = 0.8;
        let series = f.lagged_series(1985, 1995, rho);
        assert_eq!(series.len(), 11);
        for (k, v) in series.iter().enumerate() {
            let y = 1985 + k as i64;
            assert!((v - f.lagged(y, rho)).abs() < 1e-12, "year {y}");
        }
    }

    #[test]
    fn rho_zero_lag_is_previous_year() {
        let f = ForcingSeries::new(0, vec![5.0, 7.0, 11.0, 13.0]);
        assert_eq!(f.lagged(3, 0.0), 11.0);
        assert_eq!(f.lagged(1, 0.0), 5.0);
    }
}
