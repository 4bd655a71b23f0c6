//! VAR(P) temporal model on spherical-harmonic coefficient vectors.
//!
//! `f_t = Σ_{p=1..P} Φ_p f_{t−p} + ξ_t` with each `Φ_p` **diagonal**
//! (paper §III.A.3, following \[23\]): coefficient channels evolve
//! independently in time, while their *innovations* `ξ_t` remain fully
//! cross-correlated through the covariance `U` estimated downstream.
//! Diagonality turns the fit into `L²` independent AR(P) least-squares
//! problems — embarrassingly parallel over channels.

use exaclim_linalg::dense::{ols_solve, Matrix};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Fitted diagonal VAR(P): `phi[c][p]` is the lag-(p+1) coefficient of
/// channel `c`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiagonalVar {
    /// Model order `P`.
    pub order: usize,
    /// Per-channel AR coefficients, `dim × order`.
    pub phi: Vec<Vec<f64>>,
}

impl DiagonalVar {
    /// Number of channels (`L²` for the emulator).
    pub fn dim(&self) -> usize {
        self.phi.len()
    }

    /// One-step prediction `Σ_p Φ_p f_{t−p}` from `history`, where
    /// `history[0]` is `f_{t−1}`, `history[1]` is `f_{t−2}`, …
    pub fn predict(&self, history: &[&[f64]]) -> Vec<f64> {
        assert!(history.len() >= self.order, "need {} lags", self.order);
        let dim = self.dim();
        let mut out = vec![0.0; dim];
        for p in 0..self.order {
            let lagged = history[p];
            assert_eq!(lagged.len(), dim);
            for (c, o) in out.iter_mut().enumerate() {
                *o += self.phi[c][p] * lagged[c];
            }
        }
        out
    }

    /// Innovations `ξ_t = f_t − Σ_p Φ_p f_{t−p}` for `t = P..T`, time-major
    /// output of shape `(T−P) × dim`.
    pub fn innovations(&self, series: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let p = self.order;
        (p..series.len())
            .map(|t| {
                let hist: Vec<&[f64]> = (1..=p).map(|k| series[t - k].as_slice()).collect();
                let pred = self.predict(&hist);
                series[t].iter().zip(&pred).map(|(f, m)| f - m).collect()
            })
            .collect()
    }

    /// Largest absolute AR coefficient — a cheap stationarity proxy used by
    /// validation (`< 1` for each channel under AR(1)).
    pub fn max_abs_coefficient(&self) -> f64 {
        self.phi
            .iter()
            .flat_map(|row| row.iter().map(|c| c.abs()))
            .fold(0.0, f64::max)
    }
}

/// Fit a diagonal VAR(P) jointly over an ensemble of realizations: the
/// per-channel regressions stack the rows of every member (the paper's
/// `Φ_p` are shared across ensembles, like `m_t` and `σ`).
pub fn fit_diagonal_var_multi(members: &[&[Vec<f64>]], order: usize) -> DiagonalVar {
    assert!(!members.is_empty(), "need at least one ensemble member");
    assert!(order >= 1, "order must be positive");
    let dim = members[0][0].len();
    for m in members {
        assert!(m.len() > order + 1, "each member needs more than P+1 steps");
        assert!(m.iter().all(|f| f.len() == dim), "ragged series");
    }
    let rows: usize = members.iter().map(|m| m.len() - order).sum();
    let phi: Vec<Vec<f64>> = (0..dim)
        .into_par_iter()
        .map(|c| {
            let mut x = Vec::with_capacity(rows * order);
            let mut y = Vec::with_capacity(rows);
            for member in members {
                for t in order..member.len() {
                    for p in 1..=order {
                        x.push(member[t - p][c]);
                    }
                    y.push(member[t][c]);
                }
            }
            let design = Matrix::from_vec(rows, order, x);
            ols_solve(&design, &y)
        })
        .collect();
    DiagonalVar { order, phi }
}

/// Fit a diagonal VAR(P) to `series[t][c]` (`t = 0..T`), by per-channel
/// OLS: the ensemble fit of one member.
pub fn fit_diagonal_var(series: &[Vec<f64>], order: usize) -> DiagonalVar {
    fit_diagonal_var_multi(&[series], order)
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

    fn simulate_ar(phi: &[Vec<f64>], t_max: usize, seed: u64) -> Vec<Vec<f64>> {
        let dim = phi.len();
        let order = phi[0].len();
        let mut s = seed;
        let mut series: Vec<Vec<f64>> = vec![vec![0.0; dim]; t_max];
        for t in order..t_max {
            for c in 0..dim {
                let mut v = lcg(&mut s);
                for p in 1..=order {
                    v += phi[c][p - 1] * series[t - p][c];
                }
                series[t][c] = v;
            }
        }
        series
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_sequential() {
        // The per-channel OLS regressions run through the pool-backed rayon
        // shim; each channel's math is independent, so the result must be
        // bit-for-bit the sequential answer regardless of thread count.
        // `fit_diagonal_var` is `fit_diagonal_var_multi` of one member, so
        // this pins the ensemble estimator's R = 1 case too.
        let truth = vec![vec![0.6, -0.1], vec![0.4, 0.2], vec![-0.5, 0.1]];
        let series = simulate_ar(&truth, 4_000, 42);
        let order = 2;
        let fit = fit_diagonal_var(&series, order);
        let t_max = series.len();
        let rows = t_max - order;
        for (c, phi_c) in fit.phi.iter().enumerate() {
            let mut x = Vec::with_capacity(rows * order);
            let mut y = Vec::with_capacity(rows);
            for t in order..t_max {
                for p in 1..=order {
                    x.push(series[t - p][c]);
                }
                y.push(series[t][c]);
            }
            let design = Matrix::from_vec(rows, order, x);
            let seq = ols_solve(&design, &y);
            assert_eq!(phi_c.len(), seq.len());
            for (p, (a, b)) in phi_c.iter().zip(&seq).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "channel {c}, lag {p}");
            }
        }
    }

    #[test]
    fn recovers_ar1_coefficients() {
        let truth = vec![vec![0.9], vec![0.5], vec![-0.3], vec![0.0]];
        let series = simulate_ar(&truth, 20_000, 1);
        let fit = fit_diagonal_var(&series, 1);
        for (c, t) in truth.iter().enumerate() {
            assert!(
                (fit.phi[c][0] - t[0]).abs() < 0.03,
                "channel {c}: {} vs {}",
                fit.phi[c][0],
                t[0]
            );
        }
        assert!(fit.max_abs_coefficient() < 1.0);
    }

    #[test]
    fn recovers_ar3_coefficients() {
        // Stationary AR(3): roots well inside the unit circle.
        let truth = vec![vec![0.5, -0.2, 0.1], vec![0.3, 0.3, -0.1]];
        let series = simulate_ar(&truth, 50_000, 7);
        let fit = fit_diagonal_var(&series, 3);
        for c in 0..2 {
            for p in 0..3 {
                assert!(
                    (fit.phi[c][p] - truth[c][p]).abs() < 0.05,
                    "({c},{p}): {} vs {}",
                    fit.phi[c][p],
                    truth[c][p]
                );
            }
        }
    }

    #[test]
    fn innovations_are_white() {
        let truth = vec![vec![0.8]];
        let series = simulate_ar(&truth, 30_000, 3);
        let fit = fit_diagonal_var(&series, 1);
        let xi = fit.innovations(&series);
        assert_eq!(xi.len(), series.len() - 1);
        let v: Vec<f64> = xi.iter().map(|x| x[0]).collect();
        let r = exaclim_mathkit::stats::acf(&v, 3);
        assert!(r[1].abs() < 0.03, "lag-1 acf of innovations: {}", r[1]);
        assert!(r[2].abs() < 0.03);
    }

    #[test]
    fn innovations_of_true_model_recover_noise_variance() {
        let truth = vec![vec![0.7]];
        let series = simulate_ar(&truth, 20_000, 11);
        let model = DiagonalVar {
            order: 1,
            phi: truth,
        };
        let xi = model.innovations(&series);
        let v: Vec<f64> = xi.iter().map(|x| x[0]).collect();
        let var = exaclim_mathkit::stats::variance(&v);
        // Uniform(-0.5, 0.5) noise has variance 1/12.
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var={var}");
    }

    #[test]
    fn predict_uses_correct_lag_order() {
        let model = DiagonalVar {
            order: 2,
            phi: vec![vec![1.0, -0.5]],
        };
        // f_{t-1} = [2], f_{t-2} = [4] → prediction 1·2 − 0.5·4 = 0.
        let h1 = vec![2.0];
        let h2 = vec![4.0];
        let pred = model.predict(&[&h1, &h2]);
        assert_eq!(pred, vec![0.0]);
    }

    #[test]
    fn ensemble_fit_pools_information() {
        // Three short members jointly estimate φ better than any one alone.
        let truth = vec![vec![0.85]];
        let members: Vec<Vec<Vec<f64>>> =
            (0..3).map(|r| simulate_ar(&truth, 600, 10 + r)).collect();
        let refs: Vec<&[Vec<f64>]> = members.iter().map(|m| m.as_slice()).collect();
        let pooled = fit_diagonal_var_multi(&refs, 1);
        assert!(
            (pooled.phi[0][0] - 0.85).abs() < 0.05,
            "pooled {}",
            pooled.phi[0][0]
        );
        // Innovations from every member are whitened by the shared model.
        for m in &members {
            let xi = pooled.innovations(m);
            let v: Vec<f64> = xi.iter().map(|x| x[0]).collect();
            let r = exaclim_mathkit::stats::acf(&v, 1);
            assert!(r[1].abs() < 0.1, "member innovations acf {}", r[1]);
        }
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_input() {
        let series = vec![vec![0.0, 1.0], vec![0.0], vec![0.0, 1.0], vec![1.0, 0.0]];
        let _ = fit_diagonal_var(&series, 1);
    }
}
