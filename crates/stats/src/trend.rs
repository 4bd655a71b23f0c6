//! The deterministic mean-trend model of eq. (2).
//!
//! Per spatial location:
//! `m_t = β₀ + β₁ x_{⌈t/τ⌉} + β₂ (1−ρ) Σ_{s≥1} ρ^{s−1} x_{⌈t/τ⌉−s}`
//! `     + Σ_{k=1..K} a_k cos(2πtk/τ) + b_k sin(2πtk/τ)`,
//! plus the scale `σ` of the remaining stochastic component. Parameters are
//! estimated by per-location OLS (the 1-D MLE of the paper, O(T) per
//! location) with a profile grid search over `ρ ∈ [0,1)`.
//!
//! Nothing on the right-hand side but the coefficients depends on the
//! location, so the regressors are tabulated once ([`MeanBasis`]) and the
//! normal equations factored once per candidate `ρ` ([`TrendPlan`]); a
//! location then costs `Xᵀy`, two triangular solves and one residual pass
//! per `ρ`. Locations are independent, so the grid fit parallelizes with
//! rayon. A single location ([`fit_location`], [`TrendModel::mean_series`])
//! is a plan of one — there is no second code path, and the per-location
//! arithmetic (every sum in ascending `t`, `c` or `k`, started from `−0.0`
//! like `Iterator::sum`) is the contract that keeps fits bit-reproducible.

use crate::forcing::ForcingSeries;
use exaclim_linalg::dense::{normal_equations_factor, Matrix};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of the trend model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendConfig {
    /// Number of harmonic pairs `K` (the paper uses 5).
    pub k_harmonics: usize,
    /// Steps per period `τ`: 12 monthly, 365 daily, 8760 hourly.
    pub tau: usize,
    /// Candidate lag-decay values for the profile search.
    pub rho_grid: Vec<f64>,
    /// Calendar year of time step `t = 1`.
    pub start_year: i64,
}

impl TrendConfig {
    /// A daily-resolution configuration matching the paper's choices
    /// (`K = 5`, `τ = 365`).
    pub fn daily(start_year: i64) -> Self {
        Self {
            k_harmonics: 5,
            tau: 365,
            rho_grid: vec![0.0, 0.2, 0.4, 0.6, 0.8, 0.9],
            start_year,
        }
    }

    /// Hourly configuration (`τ = 8760`).
    pub fn hourly(start_year: i64) -> Self {
        Self {
            tau: 8760,
            ..Self::daily(start_year)
        }
    }

    /// Calendar year of 1-based step `t` (the `⌈t/τ⌉` mapping).
    pub fn year_of(&self, t: usize) -> i64 {
        self.start_year + ((t - 1) / self.tau) as i64
    }

    /// Number of regression columns: intercept + current + lagged forcing +
    /// 2K harmonics.
    pub fn ncols(&self) -> usize {
        3 + 2 * self.k_harmonics
    }
}

/// Fitted trend parameters of one location.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendModel {
    /// Intercept `β₀`.
    pub beta0: f64,
    /// Current-forcing slope `β₁`.
    pub beta1: f64,
    /// Lagged-forcing slope `β₂`.
    pub beta2: f64,
    /// Lag decay `ρ` selected by the profile search.
    pub rho: f64,
    /// Harmonic amplitudes `(a_k, b_k)`, `k = 1..K`.
    pub harmonics: Vec<(f64, f64)>,
    /// Residual standard deviation `σ`.
    pub sigma: f64,
}

impl TrendModel {
    /// Evaluate the mean `m_t` for `t = 1..=t_max` (a [`MeanBasis`] of this
    /// model's `ρ` alone; evaluate many models through one shared basis).
    pub fn mean_series(
        &self,
        cfg: &TrendConfig,
        forcing: &ForcingSeries,
        t_max: usize,
    ) -> Vec<f64> {
        let mut out = vec![0.0; t_max];
        MeanBasis::new(cfg, forcing, t_max, [self.rho]).mean_into(self, &mut out);
        out
    }
}

/// The location-independent regressors of eq. (2) over steps `1..=t_max`:
/// the current forcing per step, the `T × 2K` cos/sin table, and one lagged
/// forcing series per distinct `ρ`. `T·(1 + 2K + |ρ|)` values.
#[derive(Debug, Clone)]
pub struct MeanBasis {
    /// `x_{⌈t/τ⌉}` per step.
    x_year: Vec<f64>,
    /// Row `t−1`: `cos(2πtk/τ), sin(2πtk/τ)` for `k = 1..=K`.
    harmonics: Vec<f64>,
    k_harmonics: usize,
    /// `(ρ, (1−ρ)·Lag_ρ(⌈t/τ⌉) per step)` for each distinct `ρ`.
    lags: Vec<(f64, Vec<f64>)>,
}

impl MeanBasis {
    /// Tabulate the regressors for `t_max ≥ 1` steps and every `ρ` in
    /// `rhos` (duplicates are stored once).
    pub fn new(
        cfg: &TrendConfig,
        forcing: &ForcingSeries,
        t_max: usize,
        rhos: impl IntoIterator<Item = f64>,
    ) -> Self {
        assert!(t_max >= 1, "need at least one time step");
        let y_first = cfg.year_of(1);
        let y_last = cfg.year_of(t_max);
        let x_year = (1..=t_max).map(|t| forcing.at(cfg.year_of(t))).collect();
        let mut harmonics = Vec::with_capacity(t_max * 2 * cfg.k_harmonics);
        for t in 1..=t_max {
            for k in 1..=cfg.k_harmonics {
                let w = 2.0 * std::f64::consts::PI * (t as f64) * k as f64 / cfg.tau as f64;
                harmonics.push(w.cos());
                harmonics.push(w.sin());
            }
        }
        let mut lags: Vec<(f64, Vec<f64>)> = Vec::new();
        for rho in rhos {
            if lags.iter().any(|(r, _)| r.to_bits() == rho.to_bits()) {
                continue;
            }
            let annual = forcing.lagged_series(y_first, y_last, rho);
            let per_step = (1..=t_max)
                .map(|t| (1.0 - rho) * annual[(cfg.year_of(t) - y_first) as usize])
                .collect();
            lags.push((rho, per_step));
        }
        Self {
            x_year,
            harmonics,
            k_harmonics: cfg.k_harmonics,
            lags,
        }
    }

    /// Number of tabulated steps.
    pub fn t_max(&self) -> usize {
        self.x_year.len()
    }

    /// The lagged-forcing column of `rho`, which must be one of the values
    /// the basis was built for.
    fn lag(&self, rho: f64) -> &[f64] {
        self.lags
            .iter()
            .find(|(r, _)| r.to_bits() == rho.to_bits())
            .map(|(_, lag)| lag.as_slice())
            .unwrap_or_else(|| panic!("mean basis holds no lag series for ρ = {rho}"))
    }

    /// Write `m_t` of `model` for `t = 1..=out.len()` (at most
    /// [`MeanBasis::t_max`] steps).
    pub fn mean_into(&self, model: &TrendModel, out: &mut [f64]) {
        assert!(out.len() <= self.t_max(), "basis covers too few steps");
        assert!(
            model.harmonics.len() <= self.k_harmonics,
            "model has more harmonic pairs than the basis"
        );
        let lag = self.lag(model.rho);
        let width = 2 * self.k_harmonics;
        for (t, m) in out.iter_mut().enumerate() {
            let mut acc = model.beta0 + model.beta1 * self.x_year[t] + model.beta2 * lag[t];
            let cs = &self.harmonics[t * width..(t + 1) * width];
            for (k, (a, b)) in model.harmonics.iter().enumerate() {
                acc += a * cs[2 * k] + b * cs[2 * k + 1];
            }
            *m = acc;
        }
    }
}

/// Everything of the profile OLS fit that does not depend on the response:
/// per candidate `ρ` the `T × ncols` design matrix and the Cholesky factor
/// of its normal matrix (ridge fallback already decided), over a shared
/// [`MeanBasis`]. `|ρ|·T·ncols` values; built once per grid, applied to
/// every location.
#[derive(Debug, Clone)]
pub struct TrendPlan {
    basis: MeanBasis,
    /// `(ρ, X, chol(XᵀX))` in `rho_grid` order.
    designs: Vec<(f64, Matrix, Matrix)>,
}

impl TrendPlan {
    /// Plan the fit of `t_max`-step series under `cfg`.
    pub fn new(cfg: &TrendConfig, forcing: &ForcingSeries, t_max: usize) -> Self {
        assert!(t_max > cfg.ncols(), "need more time steps than parameters");
        assert!(!cfg.rho_grid.is_empty(), "non-empty rho grid");
        let basis = MeanBasis::new(cfg, forcing, t_max, cfg.rho_grid.iter().copied());
        let ncols = cfg.ncols();
        let width = 2 * cfg.k_harmonics;
        let designs = cfg
            .rho_grid
            .iter()
            .map(|&rho| {
                let lag = basis.lag(rho);
                let mut x = Vec::with_capacity(t_max * ncols);
                for t in 0..t_max {
                    x.push(1.0);
                    x.push(basis.x_year[t]);
                    x.push(lag[t]);
                    x.extend_from_slice(&basis.harmonics[t * width..(t + 1) * width]);
                }
                let x = Matrix::from_vec(t_max, ncols, x);
                let chol = normal_equations_factor(&x.transpose(), &x);
                (rho, x, chol)
            })
            .collect();
        Self { basis, designs }
    }

    /// Fit one location's series `y[t-1]`, `t = 1..=T`: OLS per candidate
    /// `ρ`, keeping the first `ρ` with the smallest residual sum of squares.
    pub fn fit(&self, y: &[f64]) -> TrendModel {
        let t_max = self.basis.t_max();
        assert_eq!(y.len(), t_max, "series length differs from the plan's");
        let mut best: Option<(f64, f64, Vec<f64>)> = None; // (sse, rho, beta)
        for (rho, x, chol) in &self.designs {
            let ncols = x.cols();
            let rows = x.as_slice().chunks_exact(ncols);
            // Xᵀy, all columns at once: per column the same ascending-t sum
            // a row of Xᵀ dotted with y gives.
            let mut xty = vec![-0.0f64; ncols];
            for (row, &v) in rows.clone().zip(y) {
                for (acc, &a) in xty.iter_mut().zip(row) {
                    *acc += a * v;
                }
            }
            let beta = chol.solve_lower_transpose(&chol.solve_lower(&xty));
            let mut err = -0.0f64;
            for (row, &v) in rows.zip(y) {
                let mut fit = -0.0f64;
                for (&a, &b) in row.iter().zip(&beta) {
                    fit += a * b;
                }
                err += (fit - v) * (fit - v);
            }
            if best.as_ref().is_none_or(|(b, _, _)| err < *b) {
                best = Some((err, *rho, beta));
            }
        }
        let (err, rho, beta) = best.expect("non-empty rho grid");
        TrendModel {
            beta0: beta[0],
            beta1: beta[1],
            beta2: beta[2],
            rho,
            harmonics: beta[3..].chunks_exact(2).map(|ab| (ab[0], ab[1])).collect(),
            sigma: (err / t_max as f64).sqrt().max(1e-12),
        }
    }
}

/// Fit one location's series `y[t-1]`, `t = 1..=T` (a [`TrendPlan`] applied
/// once; fit many series of one length through one shared plan).
pub fn fit_location(y: &[f64], cfg: &TrendConfig, forcing: &ForcingSeries) -> TrendModel {
    TrendPlan::new(cfg, forcing, y.len()).fit(y)
}

/// Trend models for every grid point plus their means and the standardized
/// residuals.
#[derive(Debug, Clone)]
pub struct TrendFit {
    /// One model per location.
    pub models: Vec<TrendModel>,
    /// Fitted mean `m_t` of every location, location-major
    /// (`p · t_max + t`).
    pub means: Vec<f64>,
    /// Standardized stochastic component `Z_t = (y_t − m_t)/σ`, time-major
    /// (`t · npoints + p`).
    pub residuals: Vec<f64>,
}

/// Fit the whole grid. `data` is time-major: `data[t·npoints + p]` for
/// `t = 0..t_max`, location `p`. Locations are fitted in parallel through
/// one [`TrendPlan`].
pub fn fit_grid(
    data: &[f64],
    t_max: usize,
    npoints: usize,
    cfg: &TrendConfig,
    forcing: &ForcingSeries,
) -> TrendFit {
    assert_eq!(data.len(), t_max * npoints);
    let plan = TrendPlan::new(cfg, forcing, t_max);
    let mut means = vec![0.0f64; npoints * t_max];
    let models: Vec<TrendModel> = means
        .par_chunks_mut(t_max)
        .enumerate()
        .map(|(p, mean)| {
            // The location's slot holds its series until the model is known.
            for (t, v) in mean.iter_mut().enumerate() {
                *v = data[t * npoints + p];
            }
            let model = plan.fit(mean);
            plan.basis.mean_into(&model, mean);
            model
        })
        .collect();
    let mut residuals = vec![0.0f64; t_max * npoints];
    residuals
        .par_chunks_mut(npoints)
        .enumerate()
        .for_each(|(t, row)| {
            for (p, r) in row.iter_mut().enumerate() {
                *r = (data[t * npoints + p] - means[p * t_max + t]) / models[p].sigma;
            }
        });
    TrendFit {
        models,
        means,
        residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    /// Sequential reference for [`fit_grid`]: a plan of one per location,
    /// driven by plain loops. The shared plan on the pool-backed rayon shim
    /// must reproduce this bit-for-bit, whatever the thread count.
    fn fit_grid_sequential(
        data: &[f64],
        t_max: usize,
        npoints: usize,
        cfg: &TrendConfig,
        forcing: &ForcingSeries,
    ) -> TrendFit {
        let models: Vec<TrendModel> = (0..npoints)
            .map(|p| {
                let series: Vec<f64> = (0..t_max).map(|t| data[t * npoints + p]).collect();
                fit_location(&series, cfg, forcing)
            })
            .collect();
        let means: Vec<f64> = models
            .iter()
            .flat_map(|m| m.mean_series(cfg, forcing, t_max))
            .collect();
        let mut residuals = vec![0.0f64; t_max * npoints];
        for t in 0..t_max {
            for p in 0..npoints {
                residuals[t * npoints + p] =
                    (data[t * npoints + p] - means[p * t_max + t]) / models[p].sigma;
            }
        }
        TrendFit {
            models,
            means,
            residuals,
        }
    }

    #[test]
    fn parallel_fit_grid_is_bit_identical_to_sequential() {
        let cfg = cfg();
        let forcing = ForcingSeries::historical_like(1950, 1970, 30);
        let (t_max, npoints) = (8 * cfg.tau, 7);
        let mut data = vec![0.0f64; t_max * npoints];
        let mut state = 0x5eed_u64;
        for (i, v) in data.iter_mut().enumerate() {
            let p = i % npoints;
            let t = i / npoints;
            let seasonal =
                (2.0 * std::f64::consts::PI * t as f64 / cfg.tau as f64 + p as f64).sin();
            *v = 280.0 + 3.0 * seasonal + 0.5 * lcg(&mut state);
        }
        let par = fit_grid(&data, t_max, npoints, &cfg, &forcing);
        let seq = fit_grid_sequential(&data, t_max, npoints, &cfg, &forcing);
        assert_eq!(par.models.len(), seq.models.len());
        for (p, (a, b)) in par.models.iter().zip(&seq.models).enumerate() {
            assert_eq!(a.beta0.to_bits(), b.beta0.to_bits(), "beta0 at {p}");
            assert_eq!(a.beta1.to_bits(), b.beta1.to_bits(), "beta1 at {p}");
            assert_eq!(a.beta2.to_bits(), b.beta2.to_bits(), "beta2 at {p}");
            assert_eq!(a.rho.to_bits(), b.rho.to_bits(), "rho at {p}");
            assert_eq!(a.sigma.to_bits(), b.sigma.to_bits(), "sigma at {p}");
            assert_eq!(a.harmonics, b.harmonics, "harmonics at {p}");
        }
        for (i, (a, b)) in par.residuals.iter().zip(&seq.residuals).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "residual at {i}");
        }
        for (i, (a, b)) in par.means.iter().zip(&seq.means).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "mean at {i}");
        }
    }

    fn cfg() -> TrendConfig {
        TrendConfig {
            k_harmonics: 2,
            tau: 12,
            rho_grid: vec![0.0, 0.3, 0.6, 0.9],
            start_year: 1950,
        }
    }

    fn synth(
        cfg: &TrendConfig,
        forcing: &ForcingSeries,
        truth: &TrendModel,
        t_max: usize,
    ) -> Vec<f64> {
        truth.mean_series(cfg, forcing, t_max)
    }

    #[test]
    fn recovers_noise_free_parameters() {
        let cfg = cfg();
        // Wiggly forcing decorrelates the current and lagged regressors;
        // a smooth ramp would leave (β₁, β₂) only jointly identified.
        let forcing = ForcingSeries::new(
            1920,
            (0..120)
                .map(|i| 2.0 + (0.7 * i as f64).sin() + 0.03 * i as f64)
                .collect(),
        );
        let truth = TrendModel {
            beta0: 285.0,
            beta1: 1.4,
            beta2: 0.8,
            rho: 0.6,
            harmonics: vec![(3.0, -1.0), (0.5, 0.25)],
            sigma: 0.0,
        };
        let t_max = 12 * 60;
        let y = synth(&cfg, &forcing, &truth, t_max);
        let fit = fit_location(&y, &cfg, &forcing);
        assert_eq!(fit.rho, 0.6, "profile search must select the true ρ");
        assert!((fit.beta0 - 285.0).abs() < 1e-4, "beta0={}", fit.beta0);
        assert!((fit.beta1 - 1.4).abs() < 1e-4, "beta1={}", fit.beta1);
        assert!((fit.beta2 - 0.8).abs() < 1e-4, "beta2={}", fit.beta2);
        assert!((fit.harmonics[0].0 - 3.0).abs() < 1e-6);
        assert!((fit.harmonics[0].1 + 1.0).abs() < 1e-6);
        assert!((fit.harmonics[1].0 - 0.5).abs() < 1e-6);
        assert!(fit.sigma < 1e-4);
        // Predictive recovery: fitted mean must reproduce the truth.
        let m = fit.mean_series(&cfg, &forcing, t_max);
        for (a, b) in m.iter().zip(&y) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn sigma_estimates_noise_level() {
        let cfg = cfg();
        let forcing = ForcingSeries::historical_like(1950, 2022, 20);
        let truth = TrendModel {
            beta0: 280.0,
            beta1: 1.0,
            beta2: 0.0,
            rho: 0.0,
            harmonics: vec![(2.0, 0.0), (0.0, 0.0)],
            sigma: 0.0,
        };
        let t_max = 12 * 50;
        let mut y = synth(&cfg, &forcing, &truth, t_max);
        // Add deterministic pseudo-noise of known std.
        let mut s = 12345u64;
        let noise_std = 0.7;
        for v in y.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u1 = ((s >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u2 = (s >> 11) as f64 / (1u64 << 53) as f64;
            *v += noise_std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
        let fit = fit_location(&y, &cfg, &forcing);
        assert!((fit.sigma - noise_std).abs() < 0.05, "sigma={}", fit.sigma);
        assert!((fit.beta0 - 280.0).abs() < 2.0);
    }

    #[test]
    fn year_mapping_is_ceiling_of_t_over_tau() {
        let c = cfg();
        assert_eq!(c.year_of(1), 1950);
        assert_eq!(c.year_of(12), 1950);
        assert_eq!(c.year_of(13), 1951);
        assert_eq!(c.year_of(25), 1952);
    }

    #[test]
    fn grid_fit_standardizes_residuals() {
        let cfg = cfg();
        let forcing = ForcingSeries::historical_like(1950, 2010, 20);
        let t_max = 12 * 40;
        let npoints = 6;
        let mut data = vec![0.0f64; t_max * npoints];
        let mut s = 99u64;
        for p in 0..npoints {
            let truth = TrendModel {
                beta0: 270.0 + p as f64,
                beta1: 0.5 + 0.1 * p as f64,
                beta2: 0.0,
                rho: 0.0,
                harmonics: vec![(1.0, 0.5), (0.0, 0.0)],
                sigma: 0.0,
            };
            let m = truth.mean_series(&cfg, &forcing, t_max);
            for t in 0..t_max {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u1 = ((s >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u2 = (s >> 11) as f64 / (1u64 << 53) as f64;
                let noise = (0.3 + 0.1 * p as f64)
                    * (-2.0 * u1.ln()).sqrt()
                    * (2.0 * std::f64::consts::PI * u2).cos();
                data[t * npoints + p] = m[t] + noise;
            }
        }
        let fit = fit_grid(&data, t_max, npoints, &cfg, &forcing);
        assert_eq!(fit.models.len(), npoints);
        // Standardized residuals: mean ≈ 0, var ≈ 1 per location.
        for p in 0..npoints {
            let series: Vec<f64> = (0..t_max).map(|t| fit.residuals[t * npoints + p]).collect();
            let mean: f64 = series.iter().sum::<f64>() / t_max as f64;
            let var: f64 =
                series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / t_max as f64;
            assert!(mean.abs() < 0.05, "p={p} mean={mean}");
            assert!((var - 1.0).abs() < 0.1, "p={p} var={var}");
        }
    }
}
