//! Empirical innovation covariance (eq. 9) and its SPD repair.

use exaclim_linalg::dense::Matrix;
use exaclim_linalg::kernels::GramPanels;
use rayon::prelude::*;
use std::collections::VecDeque;

/// Empirical covariance of innovation samples:
/// `Û = 1/(R(T−P)) Σ_r Σ_t ξ_t^{(r)} ξ_t^{(r)ᵀ}` — eq. (9). `samples`
/// holds all `R(T−P)` innovation vectors from every ensemble member.
///
/// Only the lower triangle is computed — blocks of rows in parallel on the
/// shared pool, each a register-blocked Gram product over the samples
/// packed once ([`GramPanels`]) — and then mirrored: every element is
/// `0 + Σ_s sᵢ·sⱼ` in sample order, times `1/N`, and `sᵢ·sⱼ = sⱼ·sᵢ`, so
/// the result is the same at any thread count.
///
/// The loop this replaced skipped the samples with `sᵢ = 0`. For finite
/// samples that skip is exact: a skipped term `±0·sⱼ` is a signed zero,
/// every sum starts at `+0.0`, and a round-to-nearest sum is `−0` only when
/// both operands are, so no sum is ever `−0` and adding `±0` to it changes
/// no bit. A non-finite sample propagates (`0·∞` is NaN, as in eq. 9 taken
/// literally); training rejects such data before it gets here.
pub fn empirical_covariance(samples: &[Vec<f64>]) -> Matrix {
    assert!(!samples.is_empty(), "need at least one innovation sample");
    let dim = samples[0].len();
    assert!(samples.iter().all(|s| s.len() == dim), "ragged samples");
    let packed = GramPanels::new(samples);
    let mut u = Matrix::zeros(dim, dim);
    let scale = 1.0 / samples.len() as f64;
    let panel_len = GramPanels::PANEL_ROWS * dim.max(1);
    ends_inward(u.as_mut_slice().chunks_mut(panel_len))
        .par_iter_mut()
        .for_each(|(p, rows)| {
            packed.lower_rows(*p, rows);
            let first = *p * GramPanels::PANEL_ROWS;
            for (k, row) in rows.chunks_mut(dim).enumerate() {
                for v in &mut row[..=first + k] {
                    *v *= scale;
                }
            }
        });
    mirror_lower(&mut u);
    u
}

/// Row block `i` costs about `i + 1` times block 0: hand the blocks out
/// alternately from both ends so each pool lane's contiguous share of the
/// list carries the same work.
fn ends_inward<'a>(blocks: impl Iterator<Item = &'a mut [f64]>) -> Vec<(usize, &'a mut [f64])> {
    let mut blocks: VecDeque<(usize, &mut [f64])> = blocks.enumerate().collect();
    let mut out = Vec::with_capacity(blocks.len());
    while let Some(front) = blocks.pop_front() {
        out.push(front);
        out.extend(blocks.pop_back());
    }
    out
}

/// Copy the lower triangle over the upper one.
fn mirror_lower(u: &mut Matrix) {
    for i in 0..u.rows() {
        for j in i + 1..u.rows() {
            let v = u.get(j, i);
            u.set(i, j, v);
        }
    }
}

/// The full-matrix accumulation [`empirical_covariance`] replaced, kept as
/// the oracle its bits are checked against.
#[cfg(test)]
fn empirical_covariance_reference(samples: &[Vec<f64>]) -> Matrix {
    let dim = samples[0].len();
    let mut u = Matrix::zeros(dim, dim);
    let data = u.as_mut_slice();
    for s in samples {
        for i in 0..dim {
            let si = s[i];
            if si == 0.0 {
                continue;
            }
            let row = &mut data[i * dim..(i + 1) * dim];
            for (j, r) in row.iter_mut().enumerate() {
                *r += si * s[j];
            }
        }
    }
    let scale = 1.0 / samples.len() as f64;
    for v in u.as_mut_slice() {
        *v *= scale;
    }
    u
}

/// Ensure `u` is positive definite by adding the paper's "minor perturbation
/// along the diagonal" when a Cholesky probe fails (needed whenever
/// `R(T−P) < L²` makes `Û` rank-deficient). Returns the jitter used.
pub fn ensure_spd(u: &mut Matrix) -> f64 {
    let n = u.rows();
    let trace: f64 = (0..n).map(|i| u.get(i, i)).sum();
    let base = (trace / n as f64).max(f64::MIN_POSITIVE);
    let mut jitter = 0.0f64;
    let mut step = base * 1e-10;
    for _ in 0..40 {
        if u.cholesky_lower().is_ok() {
            return jitter;
        }
        u.add_diagonal(step);
        jitter += step;
        step *= 10.0;
    }
    panic!("could not repair covariance to SPD after 40 attempts");
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_mathkit::rng::{MultivariateNormal, StandardNormal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_known_covariance() {
        // Σ = V Vᵀ with V = [[1,0],[0.8,0.6]] → Σ = [[1,0.8],[0.8,1.0]].
        let factor = vec![1.0, 0.0, 0.8, 0.6];
        let mut mvn = MultivariateNormal::from_lower_factor(vec![0.0, 0.0], &factor, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<Vec<f64>> = (0..100_000).map(|_| mvn.sample(&mut rng)).collect();
        let u = empirical_covariance(&samples);
        assert!((u.get(0, 0) - 1.0).abs() < 0.02);
        assert!((u.get(1, 1) - 1.0).abs() < 0.02);
        assert!((u.get(0, 1) - 0.8).abs() < 0.02);
        assert_eq!(u.get(0, 1), u.get(1, 0));
    }

    /// Bits, except that every NaN is one key: which NaN a sum of two
    /// keeps depends on operand order, which the compiler may commute.
    fn key(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    fn assert_same(got: &Matrix, want: &Matrix, case: &str) {
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(key(*a), key(*b), "{case}, element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn lower_triangle_accumulation_is_bit_identical_to_the_full_matrix() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut sn = StandardNormal::new();
        // Dimensions on, below and across the register block and the old
        // row block; samples with exact zeros (the rows the old loop
        // skipped) and negative zeros, an all-zero sample, and a coordinate
        // that is −0 in every sample.
        for (dim, n) in [(1usize, 3usize), (5, 40), (16, 9), (37, 120), (64, 70)] {
            let mut samples: Vec<Vec<f64>> = (0..n).map(|_| sn.sample_vec(&mut rng, dim)).collect();
            for (k, s) in samples.iter_mut().enumerate() {
                s[k % dim] = if k % 2 == 0 { 0.0 } else { -0.0 };
                s[dim / 2] = -0.0;
            }
            samples[n / 2].fill(0.0);
            let got = empirical_covariance(&samples);
            assert_same(
                &got,
                &empirical_covariance_reference(&samples),
                &format!("dim {dim}"),
            );
        }
    }

    #[test]
    fn non_finite_samples_propagate() {
        // Every element is `0 + Σ_s sᵢ·sⱼ`, unskipped: a zero meeting an ∞
        // is NaN, where the reference loop skipped the term.
        let mut rng = StdRng::seed_from_u64(23);
        let mut sn = StandardNormal::new();
        for (case, bad) in [
            vec![(3, 2, f64::INFINITY)],
            vec![(0, 0, f64::NAN)],
            vec![(5, 1, f64::INFINITY), (6, 1, f64::NEG_INFINITY)],
        ]
        .into_iter()
        .enumerate()
        {
            let mut samples: Vec<Vec<f64>> = (0..9).map(|_| sn.sample_vec(&mut rng, 7)).collect();
            for s in samples.iter_mut() {
                s[4] = 0.0;
            }
            for &(s, i, v) in &bad {
                samples[s][i] = v;
            }
            let got = empirical_covariance(&samples);
            let scale = 1.0 / samples.len() as f64;
            for i in 0..7 {
                for j in 0..=i {
                    let mut want = 0.0;
                    for s in &samples {
                        want += s[i] * s[j];
                    }
                    want *= scale;
                    let a = got.get(i, j);
                    assert_eq!(key(a), key(want), "case {case}: ({i}, {j}) {a} vs {want}");
                    assert_eq!(key(got.get(j, i)), key(a), "case {case}: ({j}, {i})");
                }
            }
            let (_, bad_i, _) = bad[0];
            assert!(got.get(4.max(bad_i), 4.min(bad_i)).is_nan(), "case {case}");
        }
    }

    #[test]
    fn rank_deficient_needs_jitter() {
        // dim 4 from only 2 samples → rank ≤ 2 → Cholesky must fail, repair
        // must succeed with a tiny jitter.
        let mut rng = StdRng::seed_from_u64(9);
        let mut sn = StandardNormal::new();
        let samples: Vec<Vec<f64>> = (0..2).map(|_| sn.sample_vec(&mut rng, 4)).collect();
        let mut u = empirical_covariance(&samples);
        assert!(
            u.cholesky_lower().is_err(),
            "rank-deficient must not factor"
        );
        let jitter = ensure_spd(&mut u);
        assert!(jitter > 0.0);
        assert!(u.cholesky_lower().is_ok());
        // Jitter should be small relative to the diagonal scale.
        let diag_mean: f64 = (0..4).map(|i| u.get(i, i)).sum::<f64>() / 4.0;
        assert!(
            jitter < 0.01 * diag_mean,
            "jitter {jitter} vs diag {diag_mean}"
        );
    }

    #[test]
    fn full_rank_needs_no_jitter() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sn = StandardNormal::new();
        let samples: Vec<Vec<f64>> = (0..200).map(|_| sn.sample_vec(&mut rng, 4)).collect();
        let mut u = empirical_covariance(&samples);
        let jitter = ensure_spd(&mut u);
        assert_eq!(jitter, 0.0);
    }

    #[test]
    fn covariance_is_symmetric_psd_by_construction() {
        let samples = vec![
            vec![1.0, 2.0, -1.0],
            vec![0.5, -0.5, 2.0],
            vec![3.0, 0.0, 1.0],
        ];
        let u = empirical_covariance(&samples);
        for i in 0..3 {
            for j in 0..3 {
                assert!((u.get(i, j) - u.get(j, i)).abs() < 1e-12);
            }
            assert!(u.get(i, i) >= 0.0);
        }
    }
}
