//! Fully normalized associated Legendre functions.
//!
//! `λ_ℓ^m(x)` is defined so that the spherical harmonics
//! `Y_{ℓm}(θ, φ) = λ_ℓ^m(cosθ) e^{imφ}` are orthonormal over the sphere:
//! `∫ Y_{ℓm} conj(Y_{ℓ'm'}) dΩ = δ_{ℓℓ'} δ_{mm'}`, equivalently
//! `∫_{-1}^{1} λ_ℓ^m λ_{ℓ'}^m dx = δ_{ℓℓ'} / 2π`.
//!
//! The Condon–Shortley phase `(−1)^m` is **included** in `λ`. All recursions
//! run upward in `ℓ`, the numerically stable direction; the diagonal seed is
//! accumulated multiplicatively with the `sinθ^m` factor folded in at every
//! step so no intermediate under/overflows below `ℓ ≈ 10⁵`.

/// Table of `λ_ℓ^m(x)` for all `0 ≤ m ≤ ℓ < L` at one abscissa, or an
/// evaluator reused across abscissae.
#[derive(Debug, Clone)]
pub struct LegendreTable {
    lmax: usize,
    /// `a_ℓ^m = sqrt((4ℓ²−1)/(ℓ²−m²))`, packed by [`idx`].
    a: Vec<f64>,
    /// `b_ℓ^m = sqrt(((ℓ−1)²−m²)/(4(ℓ−1)²−1))`, packed by [`idx`].
    b: Vec<f64>,
}

/// Packed index of `(ℓ, m)` with `0 ≤ m ≤ ℓ`: triangular row-major.
#[inline(always)]
pub fn idx(l: usize, m: usize) -> usize {
    debug_assert!(m <= l);
    l * (l + 1) / 2 + m
}

/// Number of `(ℓ, m)` pairs with `0 ≤ m ≤ ℓ < lmax + 1`… i.e. the packed
/// length for a table up to degree `lmax` inclusive.
#[inline]
pub fn packed_len(lmax: usize) -> usize {
    (lmax + 1) * (lmax + 2) / 2
}

impl LegendreTable {
    /// Precompute recursion coefficients for degrees `ℓ ≤ lmax`.
    pub fn new(lmax: usize) -> Self {
        let n = packed_len(lmax);
        let mut a = vec![0.0f64; n];
        let mut b = vec![0.0f64; n];
        for l in 2..=lmax {
            for m in 0..l.saturating_sub(1) {
                let lf = l as f64;
                let mf = m as f64;
                a[idx(l, m)] = ((4.0 * lf * lf - 1.0) / (lf * lf - mf * mf)).sqrt();
                b[idx(l, m)] = (((lf - 1.0) * (lf - 1.0) - mf * mf)
                    / (4.0 * (lf - 1.0) * (lf - 1.0) - 1.0))
                    .sqrt();
            }
        }
        Self { lmax, a, b }
    }

    /// Highest degree available.
    pub fn lmax(&self) -> usize {
        self.lmax
    }

    /// Evaluate all `λ_ℓ^m(cosθ)` into `out` (packed by [`idx`], length
    /// [`packed_len`]`(lmax)`), given `cosθ` and `sinθ ≥ 0`.
    pub fn eval_into(&self, cos_theta: f64, sin_theta: f64, out: &mut [f64]) {
        assert_eq!(out.len(), packed_len(self.lmax));
        let x = cos_theta;
        let s = sin_theta;
        // λ_0^0 = sqrt(1/4π)
        let mut diag = (1.0 / (4.0 * std::f64::consts::PI)).sqrt();
        out[idx(0, 0)] = diag;
        for m in 0..=self.lmax {
            if m > 0 {
                // λ_m^m = −sqrt((2m+1)/(2m)) sinθ λ_{m−1}^{m−1}
                let mf = m as f64;
                diag *= -((2.0 * mf + 1.0) / (2.0 * mf)).sqrt() * s;
                out[idx(m, m)] = diag;
            }
            if m < self.lmax {
                // λ_{m+1}^m = sqrt(2m+3) x λ_m^m
                out[idx(m + 1, m)] = (2.0 * m as f64 + 3.0).sqrt() * x * diag;
            }
            for l in m + 2..=self.lmax {
                out[idx(l, m)] = self.a[idx(l, m)]
                    * (x * out[idx(l - 1, m)] - self.b[idx(l, m)] * out[idx(l - 2, m)]);
            }
        }
    }

    /// Convenience allocating variant of [`LegendreTable::eval_into`].
    pub fn eval(&self, theta: f64) -> Vec<f64> {
        let mut out = vec![0.0; packed_len(self.lmax)];
        self.eval_into(theta.cos(), theta.sin(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrature::GaussLegendre;

    const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;

    #[test]
    fn closed_forms_low_degree() {
        let t = LegendreTable::new(2);
        let theta = 0.7f64;
        let v = t.eval(theta);
        let (x, s) = (theta.cos(), theta.sin());
        // λ_0^0 = sqrt(1/4π)
        assert!((v[idx(0, 0)] - (1.0 / FOUR_PI).sqrt()).abs() < 1e-14);
        // λ_1^0 = sqrt(3/4π) x
        assert!((v[idx(1, 0)] - (3.0 / FOUR_PI).sqrt() * x).abs() < 1e-14);
        // λ_1^1 = −sqrt(3/8π) sinθ
        assert!((v[idx(1, 1)] + (3.0 / (2.0 * FOUR_PI)).sqrt() * s).abs() < 1e-14);
        // λ_2^0 = sqrt(5/4π) (3x²−1)/2
        assert!((v[idx(2, 0)] - (5.0 / FOUR_PI).sqrt() * 0.5 * (3.0 * x * x - 1.0)).abs() < 1e-14);
        // λ_2^1 = −sqrt(15/8π) x sinθ
        assert!((v[idx(2, 1)] + (15.0 / (2.0 * FOUR_PI)).sqrt() * x * s).abs() < 1e-14);
        // λ_2^2 = sqrt(15/32π) sin²θ
        assert!((v[idx(2, 2)] - (15.0 / (8.0 * FOUR_PI)).sqrt() * s * s).abs() < 1e-14);
    }

    #[test]
    fn orthonormality_under_gl_quadrature() {
        // ∫_{-1}^1 λ_ℓ^m λ_{ℓ'}^m dx = δ_{ℓℓ'} / 2π, integrated exactly by GL.
        let lmax = 24;
        let table = LegendreTable::new(lmax);
        let rule = GaussLegendre::new(lmax + 1);
        let evals: Vec<Vec<f64>> = rule
            .nodes
            .iter()
            .map(|&x| {
                let mut v = vec![0.0; packed_len(lmax)];
                table.eval_into(x, (1.0 - x * x).sqrt(), &mut v);
                v
            })
            .collect();
        for m in [0usize, 1, 5, 24] {
            for l1 in (m..=lmax).step_by(3) {
                for l2 in (m..=lmax).step_by(4) {
                    let mut acc = 0.0;
                    for (k, w) in rule.weights.iter().enumerate() {
                        acc += w * evals[k][idx(l1, m)] * evals[k][idx(l2, m)];
                    }
                    let expect = if l1 == l2 {
                        1.0 / (2.0 * std::f64::consts::PI)
                    } else {
                        0.0
                    };
                    assert!(
                        (acc - expect).abs() < 1e-12,
                        "m={m} l1={l1} l2={l2}: {acc} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn vanishes_at_poles_for_m_nonzero() {
        let t = LegendreTable::new(10);
        for theta in [0.0, std::f64::consts::PI] {
            let v = t.eval(theta);
            for l in 1..=10 {
                for m in 1..=l {
                    assert!(v[idx(l, m)].abs() < 1e-13, "l={l} m={m}");
                }
            }
        }
    }

    #[test]
    fn addition_theorem_at_coincident_points() {
        // Σ_m |Y_{ℓm}|² = (2ℓ+1)/4π at any point.
        let lmax = 16;
        let t = LegendreTable::new(lmax);
        for &theta in &[0.3, 1.0, 2.2] {
            let v = t.eval(theta);
            for l in 0..=lmax {
                let mut s = v[idx(l, 0)] * v[idx(l, 0)];
                for m in 1..=l {
                    s += 2.0 * v[idx(l, m)] * v[idx(l, m)];
                }
                let expect = (2.0 * l as f64 + 1.0) / FOUR_PI;
                assert!(
                    (s - expect).abs() < 1e-11,
                    "l={l} θ={theta}: {s} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn stable_at_high_degree() {
        let lmax = 512;
        let t = LegendreTable::new(lmax);
        let v = t.eval(1.1);
        for l in 0..=lmax {
            for m in 0..=l {
                assert!(v[idx(l, m)].is_finite(), "l={l} m={m}");
            }
        }
        // Magnitudes stay bounded by the addition-theorem envelope.
        let max = v.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max < ((2.0 * lmax as f64 + 1.0) / FOUR_PI).sqrt() * 1.01);
    }

    #[test]
    fn packed_index_layout() {
        assert_eq!(idx(0, 0), 0);
        assert_eq!(idx(1, 0), 1);
        assert_eq!(idx(1, 1), 2);
        assert_eq!(idx(2, 0), 3);
        assert_eq!(packed_len(2), 6);
    }
}
