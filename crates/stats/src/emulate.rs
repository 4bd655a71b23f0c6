//! Coefficient-path sampling (paper §III.B).
//!
//! Emulation draws `ξ_t = V η_t` with `η_t ~ N(0, I)` using the Cholesky
//! factor `V` of `Û`, then runs the VAR(P) recursion forward:
//! `f_t = Σ_p Φ_p f_{t−p} + ξ_t`. The resulting coefficient vectors are
//! handed to the inverse SHT by the caller (O(L²T) for the recursion, as
//! in the paper).
//!
//! The recursion consumes no random numbers, so the η of `BLOCK` steps
//! are drawn at once — in the per-step order — and their ξ formed as one
//! lower-triangular product ([`PackedLower::mul_rows`]) whose elements sum
//! the same terms in the same order as the per-step dot products did:
//! every path is bit-identical to the step-at-a-time sampler
//! (ARCHITECTURE.md, "Sampler block contract"). The caller runs the
//! block's acceptance scan, in stream order; the pool lanes then transform
//! and multiply disjoint runs of its steps, and the caller runs the
//! recursion over them.

use crate::var::DiagonalVar;
use exaclim_linalg::kernels::PackedLower;
use exaclim_mathkit::rng::{ScannedNormals, StandardNormal};
use rand::Rng;

/// Steps whose innovations are drawn and multiplied by `V` together: 64 KiB
/// of ξ at `L = 16`.
const BLOCK: usize = 32;

/// Sampler of coefficient paths given the fitted temporal model and the
/// innovation factor.
#[derive(Debug, Clone)]
pub struct CoefficientSampler {
    var: DiagonalVar,
    /// The lower-triangular `V` with `Û = V Vᵀ`.
    factor: PackedLower,
    /// Steps discarded before the returned path starts (VAR spin-up).
    pub burn_in: usize,
}

impl CoefficientSampler {
    /// Build from a fitted VAR and the dense row-major `dim × dim` lower
    /// factor (entries above the diagonal are ignored), which is packed and
    /// not kept: a borrowed factor is never copied whole.
    pub fn new(var: DiagonalVar, factor: impl AsRef<[f64]>, dim: usize) -> Self {
        let factor = factor.as_ref();
        assert_eq!(var.dim(), dim, "VAR dimension mismatch");
        assert_eq!(factor.len(), dim * dim, "factor must be dim²");
        Self {
            var,
            factor: PackedLower::new(factor, dim),
            burn_in: 50,
        }
    }

    /// Channel count (`L²`).
    pub fn dim(&self) -> usize {
        self.factor.dim()
    }

    /// Sample a coefficient path of length `t_max` (after burn-in).
    ///
    /// Per block of `BLOCK` steps, the caller scans the block's η
    /// ([`StandardNormal::scan`]); the pool lanes take its steps in runs of
    /// whole [`PackedLower::ROW_BLOCK`]s, one run each, and transform and
    /// multiply their own; the caller then runs the VAR recursion over the
    /// block, one step per row through the lag-major `Φ` that
    /// [`DiagonalVar::innovations`] steps with. Every ξ element is its own
    /// ascending-`k` chain, so the split changes no bit.
    pub fn sample_path<R: Rng + ?Sized>(&self, t_max: usize, rng: &mut R) -> Vec<Vec<f64>> {
        let (p, dim) = (self.var.order, self.dim());
        let total = t_max + self.burn_in + p;
        let step = self.var.lag_major();
        let pool = rayon::pool::global();
        let mut sn = StandardNormal::new();
        let mut eta = ScannedNormals::default();
        let mut series: Vec<Vec<f64>> = Vec::with_capacity(total);
        series.resize(p, vec![0.0; dim]);
        let mut xi = vec![0.0; BLOCK * dim];
        for t0 in (p..total).step_by(BLOCK) {
            let steps = BLOCK.min(total - t0);
            let len = steps * dim;
            sn.scan(rng, len, &mut eta);
            let run = steps
                .div_ceil(pool.threads())
                .next_multiple_of(PackedLower::ROW_BLOCK)
                * dim;
            pool.parallel_chunks_mut(&mut xi[..len], run.max(1), |i, xi| {
                let mut h = vec![0.0; xi.len()];
                eta.transform_into(i * run, &mut h);
                self.factor.mul_rows(&h, xi);
            });
            for t in t0..t0 + steps {
                let mut f = vec![0.0; dim];
                step.predict_into(|k| &series[t - 1 - k], &mut f);
                for (v, x) in f.iter_mut().zip(&xi[(t - t0) * dim..]) {
                    *v += x;
                }
                series.push(f);
            }
        }
        series.split_off(total - t_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::empirical_covariance;
    use crate::var::fit_diagonal_var;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn sampler(phi: Vec<Vec<f64>>, factor: Vec<f64>, dim: usize) -> CoefficientSampler {
        let order = phi[0].len();
        CoefficientSampler::new(DiagonalVar { order, phi }, factor, dim)
    }

    /// Draw one innovation `ξ = V η`: the per-step sampler's inner loop.
    fn draw_innovation<R: Rng + ?Sized>(
        factor: &[f64],
        dim: usize,
        sn: &mut StandardNormal,
        rng: &mut R,
    ) -> Vec<f64> {
        let eta = sn.sample_vec(rng, dim);
        let mut out = vec![0.0; dim];
        for i in 0..dim {
            let row = &factor[i * dim..i * dim + i + 1];
            let mut acc = 0.0;
            for (l, e) in row.iter().zip(&eta[..=i]) {
                acc += l * e;
            }
            out[i] = acc;
        }
        out
    }

    /// The sampler as it ran one step at a time: the oracle of the blocked
    /// one.
    fn reference_path<R: Rng + ?Sized>(
        var: &DiagonalVar,
        factor: &[f64],
        burn_in: usize,
        t_max: usize,
        rng: &mut R,
    ) -> Vec<Vec<f64>> {
        let (p, dim) = (var.order, var.dim());
        let total = t_max + burn_in + p;
        let mut sn = StandardNormal::new();
        let mut series: Vec<Vec<f64>> = Vec::with_capacity(total);
        for _ in 0..p {
            series.push(vec![0.0; dim]);
        }
        for t in p..total {
            let hist: Vec<&[f64]> = (1..=p).map(|k| series[t - k].as_slice()).collect();
            let mut f = var.predict(&hist);
            let xi = draw_innovation(factor, dim, &mut sn, rng);
            for (v, x) in f.iter_mut().zip(&xi) {
                *v += x;
            }
            series.push(f);
        }
        series.split_off(total - t_max)
    }

    #[test]
    fn blocked_paths_match_the_per_step_sampler_bit_for_bit() {
        let mut gen = StdRng::seed_from_u64(21);
        for dim in [1usize, 2, 3, 4, 5, 17, 64, 256] {
            // A lower factor with ±0 entries and all-zero rows; NaN above
            // the diagonal, which neither sampler may read.
            let mut factor = vec![f64::NAN; dim * dim];
            for i in 0..dim {
                let zero_row = dim > 1 && i % 7 == 3;
                for k in 0..=i {
                    factor[i * dim + k] = match gen.gen_range(0..5u32) {
                        _ if zero_row => 0.0,
                        0 => 0.0,
                        1 => -0.0,
                        _ => gen.gen_range(-1.0..1.0),
                    };
                }
            }
            for order in 1..=3 {
                let phi: Vec<Vec<f64>> = (0..dim)
                    .map(|_| (0..order).map(|_| gen.gen_range(-0.3..0.3)).collect())
                    .collect();
                let var = DiagonalVar { order, phi };
                let mut smp = CoefficientSampler::new(var.clone(), factor.clone(), dim);
                for t_max in [1, BLOCK - 1, BLOCK, BLOCK + 1, 730] {
                    // Without burn-in the drawn steps are exactly `t_max`.
                    for burn_in in [0, 50] {
                        smp.burn_in = burn_in;
                        let seed = (dim * 1000 + order * 100 + t_max + burn_in) as u64;
                        let mut r1 = StdRng::seed_from_u64(seed);
                        let mut r2 = StdRng::seed_from_u64(seed);
                        let got = smp.sample_path(t_max, &mut r1);
                        let want = reference_path(&var, &factor, burn_in, t_max, &mut r2);
                        let case =
                            format!("dim {dim}, order {order}, t_max {t_max}, burn-in {burn_in}");
                        assert_eq!(got.len(), want.len(), "{case}");
                        for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                            for (c, (a, b)) in g.iter().zip(w).enumerate() {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "{case}: step {t}, channel {c}"
                                );
                            }
                        }
                        // The same η, drawn in the same order: the generator
                        // is left in the same state.
                        assert_eq!(r1.next_u64(), r2.next_u64(), "{case}: RNG state");
                    }
                }
            }
        }
    }

    #[test]
    fn ar1_marginal_variance_matches_theory() {
        // f_t = φ f_{t−1} + ξ, Var(ξ) = s² → Var(f) = s²/(1−φ²).
        let phi = 0.8;
        let s = 0.5;
        let smp = sampler(vec![vec![phi]], vec![s], 1);
        let mut rng = StdRng::seed_from_u64(2);
        let path = smp.sample_path(60_000, &mut rng);
        let xs: Vec<f64> = path.iter().map(|f| f[0]).collect();
        let var = exaclim_mathkit::stats::variance(&xs);
        let expect = s * s / (1.0 - phi * phi);
        assert!((var - expect).abs() < 0.05 * expect, "{var} vs {expect}");
        // Lag-1 autocorrelation ≈ φ.
        let r = exaclim_mathkit::stats::acf(&xs, 1);
        assert!((r[1] - phi).abs() < 0.02, "acf {} vs {phi}", r[1]);
    }

    #[test]
    fn innovations_reproduce_cross_covariance() {
        // 2-channel AR(1) with correlated innovations.
        let factor = vec![1.0, 0.0, 0.6, 0.8]; // U = [[1,0.6],[0.6,1.0]]
        let smp = sampler(vec![vec![0.5], vec![0.3]], factor, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let path = smp.sample_path(50_000, &mut rng);
        // Refit the model from the sample: round-trip consistency.
        let fit = fit_diagonal_var(&path, 1);
        assert!((fit.phi[0][0] - 0.5).abs() < 0.03);
        assert!((fit.phi[1][0] - 0.3).abs() < 0.03);
        let xi = fit.innovations(&path);
        let u = empirical_covariance(&xi);
        assert!((u.get(0, 0) - 1.0).abs() < 0.05, "{}", u.get(0, 0));
        assert!((u.get(1, 1) - 1.0).abs() < 0.05);
        assert!((u.get(0, 1) - 0.6).abs() < 0.05, "{}", u.get(0, 1));
    }

    #[test]
    fn burn_in_removes_initialization_bias() {
        let smp = sampler(vec![vec![0.95]], vec![1.0], 1);
        let mut rng = StdRng::seed_from_u64(4);
        let path = smp.sample_path(4_000, &mut rng);
        // With burn-in the early part of the path must already be at the
        // stationary scale (Var ≈ 1/(1−0.95²) ≈ 10.26).
        let head: Vec<f64> = path[..500].iter().map(|f| f[0]).collect();
        let var = exaclim_mathkit::stats::variance(&head);
        assert!(var > 3.0, "head variance {var} suggests missing burn-in");
    }

    #[test]
    fn deterministic_under_seed() {
        let smp = sampler(vec![vec![0.5], vec![-0.2]], vec![1.0, 0.0, 0.0, 1.0], 2);
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert_eq!(smp.sample_path(100, &mut r1), smp.sample_path(100, &mut r2));
    }

    #[test]
    fn path_length_is_exact() {
        let smp = sampler(vec![vec![0.1]], vec![1.0], 1);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(smp.sample_path(123, &mut rng).len(), 123);
    }
}
