//! VAR(P) temporal model on spherical-harmonic coefficient vectors.
//!
//! `f_t = Σ_{p=1..P} Φ_p f_{t−p} + ξ_t` with each `Φ_p` **diagonal**
//! (paper §III.A.3, following \[23\]): coefficient channels evolve
//! independently in time, while their *innovations* `ξ_t` remain fully
//! cross-correlated through the covariance `U` estimated downstream.
//! Diagonality turns the fit into `L²` independent AR(P) least-squares
//! problems — embarrassingly parallel over channels.
//!
//! Both directions read the time-major series in time order. The fit is
//! one sweep of lag moments `XᵀX`, `Xᵀy` per channel over the steps of
//! every member, then a `P × P` solve per channel; the one-step prediction
//! (`innovations`, the sampler's recursion, and the tests' allocating
//! `predict`) is one loop over a lag-major copy of `Φ` (`LagMajor`). Each number is the one a
//! per-channel gather of the design and `ols_solve` compute, by the same
//! operations in the same order (ARCHITECTURE.md, "VAR sweep contract").

use exaclim_linalg::dense::{normal_matrix_factor, Matrix};
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

    /// Innovations `ξ_t = f_t − Σ_p Φ_p f_{t−p}` for `t = P..T`, time-major
    /// output of shape `(T−P) × dim`; the steps are split over the pool's
    /// lanes.
    pub fn innovations(&self, series: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let step = self.lag_major();
        let steps = series.len().saturating_sub(self.order);
        rayon::pool::global().map(steps, |i| {
            let t = self.order + i;
            let mut xi = vec![0.0; self.dim()];
            step.predict_into(|p| &series[t - 1 - p], &mut xi);
            for (x, f) in xi.iter_mut().zip(&series[t]) {
                *x = f - *x;
            }
            xi
        })
    }

    /// `Φ` copied lag-major, for running many steps.
    pub(crate) fn lag_major(&self) -> LagMajor {
        let dim = self.dim();
        assert!(
            self.phi.iter().all(|row| row.len() == self.order),
            "every channel holds {} coefficients",
            self.order
        );
        let coeffs = (0..self.order)
            .flat_map(|p| self.phi.iter().map(move |row| row[p]))
            .collect();
        LagMajor {
            order: self.order,
            dim,
            coeffs,
        }
    }
}

/// The coefficients of a [`DiagonalVar`] lag-major: `coeffs[p·dim + c]` is
/// channel `c`'s lag-(p+1) coefficient, so a step is `P` unit-stride passes
/// over the channels.
#[derive(Debug, Clone)]
pub(crate) struct LagMajor {
    order: usize,
    dim: usize,
    coeffs: Vec<f64>,
}

impl LagMajor {
    /// Write `Σ_p Φ_p f_{t−p}` into `out`, where `lag(p)` is `f_{t−1−p}`.
    /// Per channel the sum starts from `+0.0` and adds `φ_p·f_{t−1−p}` in
    /// ascending `p`. It allocates nothing.
    pub(crate) fn predict_into<'a>(&self, lag: impl Fn(usize) -> &'a [f64], out: &mut [f64]) {
        let dim = self.dim;
        assert_eq!(out.len(), dim, "one prediction per channel");
        out.fill(0.0);
        for p in 0..self.order {
            let x = lag(p);
            assert_eq!(x.len(), dim, "lag {} has {} channels", p + 1, x.len());
            let phi = &self.coeffs[p * dim..(p + 1) * dim];
            for ((o, &phi), &x) in out.iter_mut().zip(phi).zip(x) {
                *o += phi * x;
            }
        }
    }
}

/// Fit a diagonal VAR(P) jointly over an ensemble of realizations: the
/// per-channel regressions stack the rows of every member (the paper's
/// `Φ_p` are shared across ensembles, like `m_t` and `σ`).
///
/// The pool lanes take contiguous channel ranges. Each lane sweeps the
/// steps of every member in order and accumulates, per channel, the lag
/// moments `XᵀX` and `Xᵀy` of its regression (row `t`: `f_{t−1}, …,
/// f_{t−P}` against `f_t`), then solves each channel's normal equations.
pub fn fit_diagonal_var_multi(members: &[&[Vec<f64>]], order: usize) -> DiagonalVar {
    assert!(!members.is_empty(), "need at least one ensemble member");
    assert!(order >= 1, "order must be positive");
    assert!(
        members.iter().all(|m| m.len() > order + 1),
        "each member needs more than P+1 steps"
    );
    let dim = members[0][0].len();
    assert!(
        members.iter().copied().flatten().all(|f| f.len() == dim),
        "ragged series"
    );
    let pool = rayon::pool::global();
    let run = dim.div_ceil(pool.threads()).max(1);
    let mut phi = vec![Vec::new(); dim];
    pool.parallel_chunks_mut(&mut phi, run, |i, phi| {
        fit_channels(members, order, i * run, phi)
    });
    DiagonalVar { order, phi }
}

/// Fit channels `c0..c0 + phi.len()` into `phi`: one sweep of every
/// member's steps `P..T` in order accumulates each channel's lag moments,
/// moment-major (`xtx[(i·P + j)·n + c]` is `Σ_t f_{t−1−i}·f_{t−1−j}`,
/// `xty[i·n + c]` is `Σ_t f_{t−1−i}·f_t`), each sum in the order of the
/// stacked design's rows as `Matrix::matmul` (`XᵀX`: from `+0.0`,
/// skipping a zero left factor `f_{t−1−i}`) and `Matrix::matvec` (`Xᵀy`:
/// from `−0.0`, like `Iterator::sum`) sum it. Each channel then runs
/// `ols_solve`'s factoring (Cholesky of `XᵀX`, ridge fallback) and its two
/// triangular solves.
fn fit_channels(members: &[&[Vec<f64>]], order: usize, c0: usize, phi: &mut [Vec<f64>]) {
    let n = phi.len();
    let cols = c0..c0 + n;
    let mut xtx = vec![0.0f64; order * order * n];
    let mut xty = vec![-0.0f64; order * n];
    for member in members {
        for t in order..member.len() {
            let y = &member[t][cols.clone()];
            for i in 0..order {
                let a = &member[t - 1 - i][cols.clone()];
                for j in 0..order {
                    let b = &member[t - 1 - j][cols.clone()];
                    let s = &mut xtx[(i * order + j) * n..][..n];
                    for ((s, &a), &b) in s.iter_mut().zip(a).zip(b) {
                        *s = if a == 0.0 { *s } else { *s + a * b };
                    }
                }
                for ((s, &a), &y) in xty[i * n..][..n].iter_mut().zip(a).zip(y) {
                    *s += a * y;
                }
            }
        }
    }
    for (c, phi) in phi.iter_mut().enumerate() {
        let normal = (0..order * order).map(|k| xtx[k * n + c]).collect();
        let rhs: Vec<f64> = (0..order).map(|i| xty[i * n + c]).collect();
        let l = normal_matrix_factor(Matrix::from_vec(order, order, normal));
        *phi = l.solve_lower_transpose(&l.solve_lower(&rhs));
    }
}

/// Fit a diagonal VAR(P) to `series[t][c]` (`t = 0..T`), by per-channel
/// OLS: the ensemble fit of one member.
pub fn fit_diagonal_var(series: &[Vec<f64>], order: usize) -> DiagonalVar {
    fit_diagonal_var_multi(&[series], order)
}

/// The allocating one-step prediction: the oracle of `innovations` and of
/// the sampler's recursion in this crate's tests.
#[cfg(test)]
impl DiagonalVar {
    /// One-step prediction `Σ_p Φ_p f_{t−p}` from `history`, where
    /// `history[0]` is `f_{t−1}`, `history[1]` is `f_{t−2}`, …
    pub(crate) fn predict(&self, history: &[&[f64]]) -> Vec<f64> {
        assert!(history.len() >= self.order, "need {} lags", self.order);
        let mut out = vec![0.0; self.dim()];
        self.lag_major().predict_into(|p| history[p], &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_linalg::dense::ols_solve;

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

    /// The fit before the lag-moment sweep: per channel, the stacked design
    /// of every member gathered and solved by `ols_solve`.
    fn fit_reference(members: &[&[Vec<f64>]], order: usize) -> Vec<Vec<f64>> {
        let dim = members[0][0].len();
        (0..dim)
            .map(|c| {
                let (mut x, mut y) = (Vec::new(), Vec::new());
                for member in members {
                    for t in order..member.len() {
                        for p in 1..=order {
                            x.push(member[t - p][c]);
                        }
                        y.push(member[t][c]);
                    }
                }
                ols_solve(&Matrix::from_vec(y.len(), order, x), &y)
            })
            .collect()
    }

    /// The one-step prediction before the lag-major step: one allocation
    /// per call, `phi[c][p]` read channel-major.
    fn predict_reference(var: &DiagonalVar, history: &[&[f64]]) -> Vec<f64> {
        let mut out = vec![0.0; var.dim()];
        for (p, lagged) in history.iter().enumerate().take(var.order) {
            for (c, o) in out.iter_mut().enumerate() {
                *o += var.phi[c][p] * lagged[c];
            }
        }
        out
    }

    /// `innovations` before the lag-major step.
    fn innovations_reference(var: &DiagonalVar, series: &[Vec<f64>]) -> Vec<Vec<f64>> {
        (var.order..series.len())
            .map(|t| {
                let hist: Vec<&[f64]> = (1..=var.order).map(|k| series[t - k].as_slice()).collect();
                let pred = predict_reference(var, &hist);
                series[t].iter().zip(&pred).map(|(f, m)| f - m).collect()
            })
            .collect()
    }

    fn assert_same_bits(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths");
        for (i, (a, b)) in a.iter().zip(b).enumerate() {
            assert_eq!(a.len(), b.len(), "{what} {i}: lengths");
            for (j, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{what} {i}, {j}: {x} vs {y}");
            }
        }
    }

    /// A member of `len` steps whose channels are, by `c % 7`: AR(2)
    /// noise; all `+0.0`; all `−0.0`; alternating `±0`; subnormal noise;
    /// AR noise with every third step an exact zero (which `XᵀX` skips);
    /// subnormals, zeros and normal values mixed.
    fn awkward_member(dim: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut s = seed;
        let mut series = vec![vec![0.0; dim]; len];
        for t in 0..len {
            for c in 0..dim {
                let e = lcg(&mut s);
                let ar = |series: &[Vec<f64>]| {
                    let lag = |k: usize| if t >= k { series[t - k][c] } else { 0.0 };
                    0.6 * lag(1) - 0.2 * lag(2) + e
                };
                series[t][c] = match c % 7 {
                    0 => ar(&series),
                    1 => 0.0,
                    2 => -0.0,
                    3 if t % 2 == 0 => 0.0,
                    3 => -0.0,
                    4 => e * 1e-310,
                    5 if t % 3 == 0 => [0.0, -0.0][t / 3 % 2],
                    5 => ar(&series),
                    _ => [e * 1e-312, 0.0, e, -0.0][t % 4],
                };
            }
        }
        series
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_sequential() {
        // The lag-moment sweep on the pool's lanes against the per-channel
        // gather and `ols_solve`, to the bit, at P = 1..3 on one member and
        // on three. The lanes split the channels unevenly at most thread
        // counts.
        let dim = 23;
        let members: Vec<Vec<Vec<f64>>> = [300, 257, 411]
            .iter()
            .zip(1..)
            .map(|(&len, seed)| awkward_member(dim, len, seed))
            .collect();
        let refs: Vec<&[Vec<f64>]> = members.iter().map(|m| m.as_slice()).collect();
        for order in 1..=3 {
            for used in [&refs[..1], &refs[..]] {
                let case = format!("order {order}, {} members", used.len());
                let fit = fit_diagonal_var_multi(used, order);
                assert_eq!(fit.order, order);
                assert_same_bits(&fit.phi, &fit_reference(used, order), &case);
            }
        }
    }

    #[test]
    fn lag_major_step_is_the_allocating_loop_bit_for_bit() {
        let dim = 23;
        let series = awkward_member(dim, 200, 5);
        let mut s = 17u64;
        for order in 1..=3 {
            let fitted = fit_diagonal_var(&series, order);
            // Coefficients with signed zeros and no relation to the data.
            let drawn = DiagonalVar {
                order,
                phi: (0..dim)
                    .map(|c| {
                        (0..order)
                            .map(|p| match (c + p) % 5 {
                                0 => 0.0,
                                1 => -0.0,
                                _ => 2.0 * lcg(&mut s),
                            })
                            .collect()
                    })
                    .collect(),
            };
            for var in [fitted, drawn] {
                let case = format!("order {order}");
                assert_same_bits(
                    &var.innovations(&series),
                    &innovations_reference(&var, &series),
                    &format!("innovations, {case}"),
                );
                for t in [order, 57, 199] {
                    let hist: Vec<&[f64]> = (1..=order).map(|k| series[t - k].as_slice()).collect();
                    assert_same_bits(
                        &[var.predict(&hist)],
                        &[predict_reference(&var, &hist)],
                        &format!("predict at {t}, {case}"),
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "each member needs more than P+1 steps")]
    fn empty_first_member_is_rejected_by_the_length_check() {
        let long = vec![vec![0.0; 2]; 8];
        fit_diagonal_var_multi(&[&[], &long], 1);
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
