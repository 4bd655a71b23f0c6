//! Spherical-harmonic evaluation and the analytic sin-weighted integrals.

use crate::legendre::{idx, LegendreTable};
use exaclim_mathkit::Complex64;

/// Evaluate a single orthonormal spherical harmonic `Y_{ℓm}(θ, φ)` for
/// `m ≥ 0`; negative orders follow from
/// `Y_{ℓ,−m} = (−1)^m conj(Y_{ℓm})`.
///
/// This is an O(ℓ²) convenience for tests and spot evaluations — bulk code
/// paths use [`LegendreTable`] directly.
pub fn ylm(l: usize, m: i64, theta: f64, phi: f64) -> Complex64 {
    assert!(m.unsigned_abs() as usize <= l, "|m| must not exceed l");
    let table = LegendreTable::new(l);
    let lam = table.eval(theta);
    let ma = m.unsigned_abs() as usize;
    let base = lam[idx(l, ma)];
    let e = Complex64::cis(ma as f64 * phi);
    if m >= 0 {
        e * base
    } else {
        let v = (e * base).conj();
        if ma.is_multiple_of(2) {
            v
        } else {
            -v
        }
    }
}

/// The analytic integral of eq. (8):
/// `I(q) = ∫₀^π e^{iqθ} sinθ dθ = ± iπ/2` for `q = ±1`, `0` for other odd
/// `q`, and `2/(1−q²)` for even `q`.
pub fn integral_iq(q: i64) -> Complex64 {
    if q.rem_euclid(2) == 1 {
        if q.abs() == 1 {
            Complex64::new(0.0, q as f64 * std::f64::consts::PI / 2.0)
        } else {
            Complex64::ZERO
        }
    } else {
        Complex64::real(2.0 / (1.0 - (q * q) as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrature::GaussLegendre;

    #[test]
    fn iq_matches_quadrature() {
        let rule = GaussLegendre::new(64);
        for q in -9i64..=9 {
            let re = rule.integrate_on(0.0, std::f64::consts::PI, |t| {
                (q as f64 * t).cos() * t.sin()
            });
            let im = rule.integrate_on(0.0, std::f64::consts::PI, |t| {
                (q as f64 * t).sin() * t.sin()
            });
            let analytic = integral_iq(q);
            assert!(
                (analytic.re - re).abs() < 1e-12,
                "q={q} re: {} vs {re}",
                analytic.re
            );
            assert!(
                (analytic.im - im).abs() < 1e-12,
                "q={q} im: {} vs {im}",
                analytic.im
            );
        }
    }

    #[test]
    fn iq_special_values() {
        assert_eq!(integral_iq(0).re, 2.0);
        assert!((integral_iq(1).im - std::f64::consts::PI / 2.0).abs() < 1e-15);
        assert!((integral_iq(-1).im + std::f64::consts::PI / 2.0).abs() < 1e-15);
        assert_eq!(integral_iq(3), Complex64::ZERO);
        assert!((integral_iq(2).re + 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn ylm_orthonormality_by_quadrature() {
        // ∫ Y_{ℓm} conj(Y_{ℓ'm'}) dΩ = δδ via GL × trapezoid-in-φ.
        let rule = GaussLegendre::new(16);
        let nphi = 32;
        let cases = [(0usize, 0i64), (1, 0), (1, 1), (2, 1), (3, -2), (4, 4)];
        for &(l1, m1) in &cases {
            for &(l2, m2) in &cases {
                let mut acc = Complex64::ZERO;
                for (x, w) in rule.nodes.iter().zip(&rule.weights) {
                    let theta = x.acos();
                    for j in 0..nphi {
                        let phi = 2.0 * std::f64::consts::PI * j as f64 / nphi as f64;
                        acc += ylm(l1, m1, theta, phi) * ylm(l2, m2, theta, phi).conj() * *w;
                    }
                }
                acc = acc * (2.0 * std::f64::consts::PI / nphi as f64);
                let expect = if (l1, m1) == (l2, m2) { 1.0 } else { 0.0 };
                assert!(
                    (acc.re - expect).abs() < 1e-10 && acc.im.abs() < 1e-10,
                    "({l1},{m1}) vs ({l2},{m2}): {acc:?}"
                );
            }
        }
    }

    #[test]
    fn negative_m_symmetry() {
        let (theta, phi) = (0.9, 2.1);
        for l in 1..=4usize {
            for m in 1..=l as i64 {
                let plus = ylm(l, m, theta, phi);
                let minus = ylm(l, -m, theta, phi);
                let sign = if m % 2 == 0 { 1.0 } else { -1.0 };
                let expect = plus.conj() * sign;
                assert!((minus - expect).abs() < 1e-12, "l={l} m={m}");
            }
        }
    }

    #[test]
    fn y00_is_constant() {
        let v = ylm(0, 0, 1.2, 3.4);
        assert!((v.re - (1.0 / (4.0 * std::f64::consts::PI)).sqrt()).abs() < 1e-14);
        assert!(v.im.abs() < 1e-14);
    }
}
