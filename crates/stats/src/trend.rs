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
//! per `ρ`. Locations are independent: the grid fit takes blocks of
//! adjacent locations in parallel on the shared pool and fits each block
//! in lanes, one location per lane, reading the time-major rows directly.
//! A single location ([`fit_location`]) is a block of one lane — there is
//! no second code path, and the per-location arithmetic (every sum in
//! ascending `t`, `c` or `k`, started from `−0.0` like `Iterator::sum`) is
//! the contract that keeps fits bit-reproducible. The standardized
//! residuals are written a time row at a time against the means of
//! [`MeanRows::row_into`], which are [`MeanBasis::mean_into`]'s to the bit.

use crate::forcing::ForcingSeries;
use exaclim_linalg::dense::{normal_equations_factor, Matrix};
use serde::{Deserialize, Serialize};

/// Configuration of the trend model.
#[derive(Debug, Clone)]
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
    /// [`MeanBasis::t_max`] steps): `β₀ + β₁x + β₂x_lag`, then
    /// `+= a·cos + b·sin` in ascending `k`.
    pub fn mean_into(&self, model: &TrendModel, out: &mut [f64]) {
        assert!(out.len() <= self.t_max(), "basis covers too few steps");
        assert!(
            model.harmonics.len() <= self.k_harmonics,
            "model has more harmonic pairs than the basis"
        );
        let lag = self.lag(model.rho);
        let width = 2 * self.k_harmonics;
        for (t, out) in out.iter_mut().enumerate() {
            let mut acc = model.beta0 + model.beta1 * self.x_year[t] + model.beta2 * lag[t];
            let cs = &self.harmonics[t * width..(t + 1) * width];
            for (cs, &(a, b)) in cs.chunks_exact(2).zip(&model.harmonics) {
                acc += a * cs[0] + b * cs[1];
            }
            *out = acc;
        }
    }
}

/// The trend coefficients of a row of locations packed for
/// [`MeanRows::row_into`]: coefficient-major, each coefficient's values
/// contiguous over the locations, so a row of means is a few passes of
/// unit-stride multiply–adds instead of one strided read per location.
#[derive(Debug, Clone)]
pub struct MeanRows<'b> {
    basis: &'b MeanBasis,
    /// Harmonic pairs every model has.
    k: usize,
    /// `β₀, β₁, β₂, a₁, b₁, …, a_K, b_K`, `npoints` values each.
    coeffs: Vec<f64>,
    /// Per location, the index of its `ρ` into a row of `lag_rows`.
    lag_of: Vec<usize>,
    /// Row `t`: `(1−ρ)·Lag_ρ` of step `t + 1` for every distinct `ρ`
    /// of the basis, in the basis' order.
    lag_rows: Vec<f64>,
}

impl MeanBasis {
    /// Pack `models` (one per location, all with the same number of
    /// harmonic pairs, each `ρ` one the basis was built for) for row-wise
    /// evaluation.
    pub fn rows(&self, models: &[TrendModel]) -> MeanRows<'_> {
        let npoints = models.len();
        let k = models.first().map_or(0, |m| m.harmonics.len());
        assert!(
            models.iter().all(|m| m.harmonics.len() == k),
            "models with unequal harmonic counts"
        );
        assert!(
            k <= self.k_harmonics,
            "model has more harmonic pairs than the basis"
        );
        let mut coeffs = Vec::with_capacity((3 + 2 * k) * npoints);
        coeffs.extend(models.iter().map(|m| m.beta0));
        coeffs.extend(models.iter().map(|m| m.beta1));
        coeffs.extend(models.iter().map(|m| m.beta2));
        for j in 0..k {
            coeffs.extend(models.iter().map(|m| m.harmonics[j].0));
            coeffs.extend(models.iter().map(|m| m.harmonics[j].1));
        }
        let lag_of = models
            .iter()
            .map(|m| {
                self.lags
                    .iter()
                    .position(|(r, _)| r.to_bits() == m.rho.to_bits())
                    .unwrap_or_else(|| panic!("mean basis holds no lag series for ρ = {}", m.rho))
            })
            .collect();
        let lag_rows = (0..self.t_max())
            .flat_map(|t| self.lags.iter().map(move |(_, lag)| lag[t]))
            .collect();
        MeanRows {
            basis: self,
            k,
            coeffs,
            lag_of,
            lag_rows,
        }
    }
}

impl MeanRows<'_> {
    /// Write `m_t` of step `t + 1` for every location (`out` holds one
    /// value per model). Each element is [`MeanBasis::mean_into`]'s
    /// operations in its order — `β₀ + β₁x + β₂x_lag`, then
    /// `+= a·cos + b·sin` in ascending `k` — so it has the same bits; only
    /// the loop order changed, locations inside, harmonics outside.
    pub fn row_into(&self, t: usize, out: &mut [f64]) {
        let (basis, n) = (self.basis, self.lag_of.len());
        assert_eq!(out.len(), n, "one mean per location");
        assert!(t < basis.t_max(), "basis covers too few steps");
        if n == 0 {
            return;
        }
        let x = basis.x_year[t];
        let nlags = basis.lags.len();
        let lag_t = &self.lag_rows[t * nlags..(t + 1) * nlags];
        let (beta, harmonics) = self.coeffs.split_at(3 * n);
        let (beta0, rest) = beta.split_at(n);
        let (beta1, beta2) = rest.split_at(n);
        for ((((m, &b0), &b1), &b2), &l) in out
            .iter_mut()
            .zip(beta0)
            .zip(beta1)
            .zip(beta2)
            .zip(&self.lag_of)
        {
            *m = b0 + b1 * x + b2 * lag_t[l];
        }
        let width = 2 * basis.k_harmonics;
        let cs = &basis.harmonics[t * width..t * width + 2 * self.k];
        for (cs, ab) in cs.chunks_exact(2).zip(harmonics.chunks_exact(2 * n)) {
            let (a, b) = ab.split_at(n);
            for ((m, &a), &b) in out.iter_mut().zip(a).zip(b) {
                *m += a * cs[0] + b * cs[1];
            }
        }
    }

    /// The standardized residuals `Z_t = (y_t − m_t)/σ` of time-major
    /// `data` (`t · npoints + p`, one row per basis step), with one `σ`
    /// per location. The pool lanes take contiguous runs of rows; a lane
    /// evaluates each row's means into its own one-row scratch
    /// ([`MeanRows::row_into`]) and writes the row, so every read and
    /// write is unit-stride.
    pub fn residuals(&self, data: &[f64], sigma: &[f64]) -> Vec<f64> {
        let (t_max, npoints) = (self.basis.t_max(), self.lag_of.len());
        assert_eq!(sigma.len(), npoints, "one σ per location");
        assert_eq!(data.len(), t_max * npoints, "one row per basis step");
        let mut residuals = vec![0.0f64; t_max * npoints];
        if npoints == 0 {
            return residuals;
        }
        let pool = rayon::pool::global();
        let run = t_max.div_ceil(pool.threads());
        pool.parallel_chunks_mut(&mut residuals, run * npoints, |i, out| {
            let mut m = vec![0.0f64; npoints];
            let rows = out
                .chunks_exact_mut(npoints)
                .zip(data[i * run * npoints..].chunks_exact(npoints));
            for (t, (z, y)) in (i * run..).zip(rows) {
                self.row_into(t, &mut m);
                for (((z, &y), &m), &s) in z.iter_mut().zip(y).zip(&m).zip(sigma) {
                    *z = (y - m) / s;
                }
            }
        });
        residuals
    }
}

/// Everything of the profile OLS fit that does not depend on the response:
/// per candidate `ρ` the Cholesky factor of the normal matrix of its
/// `T × ncols` design (ridge fallback already decided), over a shared
/// [`MeanBasis`] whose columns are the design's. `|ρ|·ncols²` values plus
/// the basis; built once per grid, applied to every location.
#[derive(Debug, Clone)]
pub struct TrendPlan {
    basis: MeanBasis,
    /// `(ρ, chol(XᵀX))` in `rho_grid` order.
    designs: Vec<(f64, Matrix)>,
}

/// Adjacent locations [`fit_grid`] fits together, one per lane.
const LANES: usize = 8;

/// `acc[l] += a · x[l]` in every lane.
#[inline(always)]
fn lanes_add_scaled<const W: usize>(acc: &mut [f64; W], a: f64, x: &[f64; W]) {
    for (s, &v) in acc.iter_mut().zip(x) {
        *s += a * v;
    }
}

/// Solve `L·y = b` in place in every lane (`L` lower triangular):
/// [`Matrix::solve_lower`]'s operations in its order, per lane.
fn solve_lower_lanes<const W: usize>(l: &Matrix, v: &mut [[f64; W]]) {
    for i in 0..v.len() {
        let mut s = v[i];
        for k in 0..i {
            let lik = l.get(i, k);
            for (s, &y) in s.iter_mut().zip(&v[k]) {
                *s -= lik * y;
            }
        }
        let lii = l.get(i, i);
        v[i] = s.map(|s| s / lii);
    }
}

/// Solve `Lᵀ·x = y` in place in every lane:
/// [`Matrix::solve_lower_transpose`]'s operations in its order, per lane.
fn solve_lower_transpose_lanes<const W: usize>(l: &Matrix, v: &mut [[f64; W]]) {
    for i in (0..v.len()).rev() {
        let mut s = v[i];
        for k in i + 1..v.len() {
            let lki = l.get(k, i);
            for (s, &x) in s.iter_mut().zip(&v[k]) {
                *s -= lki * x;
            }
        }
        let lii = l.get(i, i);
        v[i] = s.map(|s| s / lii);
    }
}

/// The design matrix of candidate `ρ`: row `t` is
/// `1, x_{⌈t/τ⌉}, (1−ρ)·Lag_ρ, cos/sin(2πtk/τ)` for `k = 1..=K`.
fn design(basis: &MeanBasis, rho: f64) -> Matrix {
    let t_max = basis.t_max();
    let width = 2 * basis.k_harmonics;
    let lag = basis.lag(rho);
    let mut x = Vec::with_capacity(t_max * (3 + width));
    for t in 0..t_max {
        x.push(1.0);
        x.push(basis.x_year[t]);
        x.push(lag[t]);
        x.extend_from_slice(&basis.harmonics[t * width..(t + 1) * width]);
    }
    Matrix::from_vec(t_max, 3 + width, x)
}

impl TrendPlan {
    /// Plan the fit of `t_max`-step series under `cfg`.
    pub fn new(cfg: &TrendConfig, forcing: &ForcingSeries, t_max: usize) -> Self {
        assert!(t_max > cfg.ncols(), "need more time steps than parameters");
        assert!(!cfg.rho_grid.is_empty(), "non-empty rho grid");
        let basis = MeanBasis::new(cfg, forcing, t_max, cfg.rho_grid.iter().copied());
        let designs = cfg
            .rho_grid
            .iter()
            .map(|&rho| {
                let x = design(&basis, rho);
                (rho, normal_equations_factor(&x.transpose(), &x))
            })
            .collect();
        Self { basis, designs }
    }

    /// Fit one location's series `y[t-1]`, `t = 1..=T`: OLS per candidate
    /// `ρ`, keeping the first `ρ` with the smallest residual sum of squares
    /// (a block of one lane).
    pub fn fit(&self, y: &[f64]) -> TrendModel {
        assert_eq!(
            y.len(),
            self.basis.t_max(),
            "series length differs from the plan's"
        );
        let [model] = self.fit_lanes::<1>(y, 1);
        model
    }

    /// Fit `W` series at once, lane `l` reading step `t` at
    /// `data[t·stride + l]` — adjacent locations straight from time-major
    /// rows. Per lane every number is the one a single-location fit
    /// computes, by the same operations in the same order
    /// (ARCHITECTURE.md, "Op-order contract"); the lanes only share loads
    /// and the `Xᵀy` columns every `ρ` has in common.
    fn fit_lanes<const W: usize>(&self, data: &[f64], stride: usize) -> [TrendModel; W] {
        let b = &self.basis;
        let t_max = b.t_max();
        let width = 2 * b.k_harmonics;
        let ncols = 3 + width;
        let row = |t: usize| -> &[f64; W] {
            data[t * stride..][..W]
                .try_into()
                .expect("a row holds W lanes")
        };
        let lags: Vec<&[f64]> = self.designs.iter().map(|&(rho, _)| b.lag(rho)).collect();
        // Xᵀy per column, ascending t from −0.0. Only the lag column (2)
        // differs between the candidate designs: the others are summed once.
        let mut shared = vec![[-0.0f64; W]; ncols];
        let mut lag_xty = vec![[-0.0f64; W]; lags.len()];
        for t in 0..t_max {
            let y = row(t);
            lanes_add_scaled(&mut shared[0], 1.0, y);
            lanes_add_scaled(&mut shared[1], b.x_year[t], y);
            for (acc, &a) in shared[3..].iter_mut().zip(&b.harmonics[t * width..]) {
                lanes_add_scaled(acc, a, y);
            }
            for (acc, lag) in lag_xty.iter_mut().zip(&lags) {
                lanes_add_scaled(acc, lag[t], y);
            }
        }
        // β per candidate: the two triangular solves with its factor.
        let mut betas = Vec::with_capacity(lags.len() * ncols);
        for ((_, chol), lag) in self.designs.iter().zip(&lag_xty) {
            let at = betas.len();
            betas.extend_from_slice(&shared);
            let beta = &mut betas[at..];
            beta[2] = *lag;
            solve_lower_lanes(chol, beta);
            solve_lower_transpose_lanes(chol, beta);
        }
        // Σ_t (Σ_c x_tc β_c − y_t)², inner sum ascending c, both from −0.0.
        let mut sse = vec![[-0.0f64; W]; lags.len()];
        for t in 0..t_max {
            let y = row(t);
            let h = &b.harmonics[t * width..(t + 1) * width];
            for ((err, beta), lag) in sse.iter_mut().zip(betas.chunks_exact(ncols)).zip(&lags) {
                let mut fit = [-0.0f64; W];
                lanes_add_scaled(&mut fit, 1.0, &beta[0]);
                lanes_add_scaled(&mut fit, b.x_year[t], &beta[1]);
                lanes_add_scaled(&mut fit, lag[t], &beta[2]);
                for (&a, beta) in h.iter().zip(&beta[3..]) {
                    lanes_add_scaled(&mut fit, a, beta);
                }
                for ((e, f), v) in err.iter_mut().zip(fit).zip(y) {
                    *e += (f - v) * (f - v);
                }
            }
        }
        std::array::from_fn(|l| {
            // The first ρ with the smallest sum.
            let mut best = 0;
            for (r, err) in sse.iter().enumerate().skip(1) {
                if err[l] < sse[best][l] {
                    best = r;
                }
            }
            let beta: Vec<f64> = betas[best * ncols..(best + 1) * ncols]
                .iter()
                .map(|c| c[l])
                .collect();
            TrendModel {
                beta0: beta[0],
                beta1: beta[1],
                beta2: beta[2],
                rho: self.designs[best].0,
                harmonics: beta[3..].chunks_exact(2).map(|ab| (ab[0], ab[1])).collect(),
                sigma: (sse[best][l] / t_max as f64).sqrt().max(1e-12),
            }
        })
    }
}

/// Fit one location's series `y[t-1]`, `t = 1..=T` (a [`TrendPlan`] applied
/// once; fit many series of one length through one shared plan).
pub fn fit_location(y: &[f64], cfg: &TrendConfig, forcing: &ForcingSeries) -> TrendModel {
    TrendPlan::new(cfg, forcing, y.len()).fit(y)
}

/// Trend models for every grid point and the standardized residuals.
#[derive(Debug, Clone)]
pub struct TrendFit {
    /// One model per location.
    pub models: Vec<TrendModel>,
    /// Standardized stochastic component `Z_t = (y_t − m_t)/σ`, time-major
    /// (`t · npoints + p`).
    pub residuals: Vec<f64>,
}

/// Fit the whole grid. `data` is time-major: `data[t·npoints + p]` for
/// `t = 0..t_max`, location `p`. Blocks of adjacent locations are fitted in
/// parallel through one [`TrendPlan`], each block reading the rows it
/// spans in lanes; the residuals are then written row by row against the
/// fitted means ([`MeanRows::residuals`]).
pub fn fit_grid(
    data: &[f64],
    t_max: usize,
    npoints: usize,
    cfg: &TrendConfig,
    forcing: &ForcingSeries,
) -> TrendFit {
    assert_eq!(data.len(), t_max * npoints);
    let plan = TrendPlan::new(cfg, forcing, t_max);
    let blocks = rayon::pool::global().map(npoints.div_ceil(LANES), |b| {
        let p0 = b * LANES;
        if p0 + LANES <= npoints {
            Vec::from(plan.fit_lanes::<LANES>(&data[p0..], npoints))
        } else {
            // The last block, narrower than the lanes: one at a time.
            (p0..npoints)
                .map(|p| {
                    let [model] = plan.fit_lanes::<1>(&data[p..], npoints);
                    model
                })
                .collect()
        }
    });
    let models: Vec<TrendModel> = blocks.into_iter().flatten().collect();
    let sigma: Vec<f64> = models.iter().map(|m| m.sigma).collect();
    let residuals = plan.basis.rows(&models).residuals(data, &sigma);
    TrendFit { models, residuals }
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

    /// The per-location fit before the lanes: per `ρ` one scalar chain
    /// over the stored design matrix, `Xᵀy` for every column of it.
    fn fit_location_reference(y: &[f64], cfg: &TrendConfig, forcing: &ForcingSeries) -> TrendModel {
        let t_max = y.len();
        let basis = MeanBasis::new(cfg, forcing, t_max, cfg.rho_grid.iter().copied());
        let mut best: Option<(f64, f64, Vec<f64>)> = None; // (sse, rho, beta)
        for &rho in &cfg.rho_grid {
            let x = design(&basis, rho);
            let chol = normal_equations_factor(&x.transpose(), &x);
            let ncols = x.cols();
            let rows = x.as_slice().chunks_exact(ncols);
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
                best = Some((err, rho, beta));
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

    /// Sequential reference for [`fit_grid`]: every location gathered
    /// and fitted alone by the reference loop, its residuals
    /// `(y − TrendModel::mean_series)/σ`, the single-location mean. The
    /// lanes and the row-wise residual pass on the shared pool must
    /// reproduce this bit for bit, whatever the thread count and wherever a
    /// location falls in its block.
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
                fit_location_reference(&series, cfg, forcing)
            })
            .collect();
        let mut residuals = vec![0.0f64; t_max * npoints];
        for (p, model) in models.iter().enumerate() {
            let mean = model.mean_series(cfg, forcing, t_max);
            for (t, m) in mean.iter().enumerate() {
                residuals[t * npoints + p] = (data[t * npoints + p] - m) / model.sigma;
            }
        }
        TrendFit { models, residuals }
    }

    fn model_bits(m: &TrendModel) -> Vec<f64> {
        let mut v = vec![m.beta0, m.beta1, m.beta2, m.rho, m.sigma];
        v.extend(m.harmonics.iter().flat_map(|&(a, b)| [a, b]));
        v
    }

    fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn parallel_fit_grid_is_bit_identical_to_sequential() {
        let cfg = cfg();
        let forcing = ForcingSeries::historical_like(1950, 1970, 30);
        // A row count the pool's lanes do not split evenly, and every
        // width of the last lane block: npoints ≡ 0..7 (mod 8).
        let t_max = 8 * cfg.tau + 3;
        for npoints in (1..=2 * LANES + 1).chain([594]) {
            let mut data = vec![0.0f64; t_max * npoints];
            let mut state = 0x5eed_u64 + npoints as u64;
            for (i, v) in data.iter_mut().enumerate() {
                let p = i % npoints;
                let t = i / npoints;
                let seasonal =
                    (2.0 * std::f64::consts::PI * t as f64 / cfg.tau as f64 + p as f64).sin();
                let noise = lcg(&mut state);
                *v = match p % 11 {
                    // All zero: every sum is a signed zero, every ρ ties at
                    // a residual sum of zero and the first must win. A sum
                    // of −0.0 terms stays −0.0 only from a −0.0 start.
                    1 => 0.0,
                    3 => -0.0,
                    // Constant: the fit is exact up to rounding.
                    2 => 281.5,
                    _ => 280.0 + 3.0 * seasonal + 0.5 * noise,
                };
            }
            let par = fit_grid(&data, t_max, npoints, &cfg, &forcing);
            let seq = fit_grid_sequential(&data, t_max, npoints, &cfg, &forcing);
            assert_eq!(par.models.len(), npoints);
            for (p, (a, b)) in par.models.iter().zip(&seq.models).enumerate() {
                assert_same_bits(
                    &model_bits(a),
                    &model_bits(b),
                    &format!("model {p} of {npoints}"),
                );
                if p % 11 == 1 || p % 11 == 3 {
                    assert_eq!(a.rho, cfg.rho_grid[0], "the first ρ wins a tie");
                }
            }
            assert_same_bits(
                &par.residuals,
                &seq.residuals,
                &format!("residuals of {npoints}"),
            );
        }
    }

    #[test]
    fn single_location_fit_is_the_reference_fit() {
        let cfg = cfg();
        let forcing = ForcingSeries::historical_like(1950, 1970, 30);
        let mut state = 7u64;
        let y: Vec<f64> = (0..8 * cfg.tau).map(|_| 3.0 * lcg(&mut state)).collect();
        let a = fit_location(&y, &cfg, &forcing);
        let b = fit_location_reference(&y, &cfg, &forcing);
        assert_same_bits(&model_bits(&a), &model_bits(&b), "model");
    }

    #[test]
    fn mean_rows_are_mean_into_bit_for_bit() {
        let cfg = cfg();
        let forcing = ForcingSeries::historical_like(1950, 1970, 30);
        let t_max = 3 * cfg.tau + 5;
        let mut state = 0xace_u64;
        // Every ρ of the grid, in an order that is not the basis' (which is
        // first-seen), and signed zeros among the coefficients.
        let models: Vec<TrendModel> = (0..13)
            .map(|p| TrendModel {
                beta0: if p == 4 {
                    -0.0
                } else {
                    280.0 + lcg(&mut state)
                },
                beta1: if p == 5 { 0.0 } else { 2.0 * lcg(&mut state) },
                beta2: lcg(&mut state),
                rho: cfg.rho_grid[(p * 3 + 1) % cfg.rho_grid.len()],
                harmonics: (0..cfg.k_harmonics)
                    .map(|_| (lcg(&mut state), -0.5 * lcg(&mut state)))
                    .collect(),
                sigma: 1.0,
            })
            .collect();
        let basis = MeanBasis::new(&cfg, &forcing, t_max, models.iter().map(|m| m.rho));
        let columns: Vec<Vec<f64>> = models
            .iter()
            .map(|m| {
                let mut out = vec![0.0; t_max];
                basis.mean_into(m, &mut out);
                out
            })
            .collect();
        let rows = basis.rows(&models);
        let mut row = vec![f64::NAN; models.len()];
        for t in 0..t_max {
            rows.row_into(t, &mut row);
            let want: Vec<f64> = columns.iter().map(|c| c[t]).collect();
            assert_same_bits(&row, &want, &format!("row {t}"));
        }
        // Fewer harmonic pairs than the basis holds.
        let short: Vec<TrendModel> = models
            .iter()
            .map(|m| TrendModel {
                harmonics: m.harmonics[..1].to_vec(),
                ..m.clone()
            })
            .collect();
        let rows = basis.rows(&short);
        for t in [0, t_max - 1] {
            rows.row_into(t, &mut row);
            for (p, m) in short.iter().enumerate() {
                let mut col = vec![0.0; t + 1];
                basis.mean_into(m, &mut col);
                assert_eq!(row[p].to_bits(), col[t].to_bits(), "short model {p} at {t}");
            }
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
