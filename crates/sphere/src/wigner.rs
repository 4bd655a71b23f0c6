//! Wigner-d matrices at the fixed argument `β = π/2`.
//!
//! The paper's SHT (eqs. 6–7) expands `d^ℓ_{m,0}(θ)` in complex exponentials
//! through the identity
//! `d^ℓ_{m,0}(θ) = i^{−m} Σ_{m'} d^ℓ_{m',0}(π/2) d^ℓ_{m',m}(π/2) e^{im'θ}`,
//! so the full set of `d^ℓ_{m',m}(π/2)` for `ℓ < L` is precomputed once
//! (O(L³) storage, as in the paper §III.A.2) and reused for every time slice.
//!
//! Values are generated by the Blanco–Flórez–Bermejo three-term recursion in
//! `ℓ` (the standard stable direction), specialized to `cos β = 0`, with
//! analytic `d^j_{j,m}` seeds evaluated in log space.

use exaclim_mathkit::special::{ln_factorial, neg_one_pow};

/// Table of `d^ℓ_{m',m}(π/2)` for all `0 ≤ ℓ ≤ lmax`, `|m'|, |m| ≤ ℓ`.
#[derive(Debug, Clone)]
pub struct WignerPiHalf {
    lmax: usize,
    /// `data[ℓ]` is a `(2ℓ+1) × (2ℓ+1)` row-major matrix indexed by
    /// `(m' + ℓ, m + ℓ)`.
    data: Vec<Vec<f64>>,
}

impl WignerPiHalf {
    /// Precompute all matrices up to degree `lmax` inclusive.
    pub fn new(lmax: usize) -> Self {
        let mut data: Vec<Vec<f64>> = (0..=lmax)
            .map(|l| vec![0.0; (2 * l + 1) * (2 * l + 1)])
            .collect();
        let lm = lmax as i64;
        for mp in -lm..=lm {
            for m in -lm..=lm {
                let l0 = mp.abs().max(m.abs());
                if l0 > lm {
                    continue;
                }
                let mut d2 = 0.0f64; // d^{ℓ-2}
                let mut d1 = seed_pi_half(l0, mp, m); // d^{ℓ0}
                set(&mut data, l0, mp, m, d1);
                for l in (l0 + 1)..=lm {
                    let d = if l == 1 {
                        // Only reachable for mp = m = 0: d¹₀₀(π/2) = cos(π/2) = 0.
                        0.0
                    } else {
                        let lf = l as f64;
                        let mpf = mp as f64;
                        let mf = m as f64;
                        let coef = lf * (2.0 * lf - 1.0)
                            / ((lf * lf - mpf * mpf) * (lf * lf - mf * mf)).sqrt();
                        let t1 = -(mpf * mf) / (lf * (lf - 1.0)) * d1;
                        let lm1 = lf - 1.0;
                        let t2 = ((lm1 * lm1 - mpf * mpf) * (lm1 * lm1 - mf * mf)).sqrt()
                            / (lm1 * (2.0 * lf - 1.0))
                            * d2;
                        coef * (t1 - t2)
                    };
                    set(&mut data, l, mp, m, d);
                    d2 = d1;
                    d1 = d;
                }
            }
        }
        Self { lmax, data }
    }

    /// Highest degree stored.
    pub fn lmax(&self) -> usize {
        self.lmax
    }

    /// Look up `d^ℓ_{m',m}(π/2)`.
    #[inline]
    pub fn get(&self, l: usize, mp: i64, m: i64) -> f64 {
        debug_assert!(l <= self.lmax);
        debug_assert!(mp.unsigned_abs() as usize <= l && m.unsigned_abs() as usize <= l);
        let dim = 2 * l + 1;
        self.data[l][(mp + l as i64) as usize * dim + (m + l as i64) as usize]
    }

    /// Borrow the full `(2ℓ+1)²` matrix for degree `ℓ` (row-major over
    /// `m' + ℓ`, `m + ℓ`). Useful for the SHT inner contractions.
    pub fn matrix(&self, l: usize) -> &[f64] {
        &self.data[l]
    }
}

fn set(data: &mut [Vec<f64>], l: i64, mp: i64, m: i64, v: f64) {
    let lu = l as usize;
    let dim = 2 * lu + 1;
    data[lu][(mp + l) as usize * dim + (m + l) as usize] = v;
}

/// `d^j_{j,m}(π/2) = (−1)^{j−m} 2^{−j} sqrt((2j)! / ((j+m)!(j−m)!))`,
/// from the closed form `d^j_{j,m}(β) = C cos^{j+m}(β/2) (−sin(β/2))^{j−m}`.
fn seed_top(j: i64, m: i64) -> f64 {
    debug_assert!(m.abs() <= j);
    let ln = 0.5
        * (ln_factorial((2 * j) as u64)
            - ln_factorial((j + m) as u64)
            - ln_factorial((j - m) as u64))
        - j as f64 * std::f64::consts::LN_2;
    neg_one_pow(j - m) * ln.exp()
}

/// Seed `d^{ℓ0}_{m',m}(π/2)` at the boundary degree `ℓ0 = max(|m'|, |m|)`,
/// reduced to [`seed_top`] through the Varshalovich symmetries
/// `d^j_{m',m} = (−1)^{m'−m} d^j_{m,m'} = (−1)^{m'−m} d^j_{−m',−m}`.
fn seed_pi_half(j: i64, mp: i64, m: i64) -> f64 {
    debug_assert_eq!(j, mp.abs().max(m.abs()));
    if j == 0 {
        return 1.0;
    }
    if mp == j {
        seed_top(j, m)
    } else if mp == -j {
        // d^j_{−j,m} = (−1)^{j+m} d^j_{j,−m}
        neg_one_pow(j + m) * seed_top(j, -m)
    } else if m == j {
        // d^j_{m',j} = (−1)^{m'−j} d^j_{j,m'}
        neg_one_pow(mp - j) * seed_top(j, mp)
    } else {
        // m == −j: d^j_{m',−j} = d^j_{j,−m'} (signs cancel)
        debug_assert_eq!(m, -j);
        seed_top(j, -mp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legendre::{idx, LegendreTable};
    use exaclim_mathkit::Complex64;

    #[test]
    fn degree_one_closed_forms() {
        let w = WignerPiHalf::new(1);
        // At β = π/2: d¹₁₁ = 1/2, d¹₁₀ = −1/√2, d¹₁,₋₁ = 1/2, d¹₀₀ = 0.
        assert!((w.get(1, 1, 1) - 0.5).abs() < 1e-14);
        assert!((w.get(1, 1, 0) + std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-14);
        assert!((w.get(1, 1, -1) - 0.5).abs() < 1e-14);
        assert!(w.get(1, 0, 0).abs() < 1e-14);
        // d¹₀₁ = +1/√2 (antisymmetry), d¹₋₁,₋₁ = 1/2.
        assert!((w.get(1, 0, 1) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-14);
        assert!((w.get(1, -1, -1) - 0.5).abs() < 1e-14);
    }

    #[test]
    fn d_l00_equals_legendre_p_at_zero() {
        // d^ℓ₀₀(β) = P_ℓ(cos β); at π/2 this is P_ℓ(0):
        // 0 for odd ℓ, (−1)^{ℓ/2} (ℓ−1)!!/ℓ!! for even ℓ.
        let w = WignerPiHalf::new(12);
        let mut expect = [0.0f64; 13];
        expect[0] = 1.0;
        for l in (2..=12).step_by(2) {
            expect[l] = -expect[l - 2] * (l as f64 - 1.0) / l as f64;
        }
        for l in 0..=12usize {
            assert!(
                (w.get(l, 0, 0) - expect[l]).abs() < 1e-13,
                "l={l}: {} vs {}",
                w.get(l, 0, 0),
                expect[l]
            );
        }
    }

    #[test]
    fn rows_are_orthonormal() {
        // d^ℓ is an orthogonal matrix: Σ_{m'} d_{m'm} d_{m'n} = δ_{mn}.
        let lmax = 16;
        let w = WignerPiHalf::new(lmax);
        for l in [1usize, 5, 16] {
            let li = l as i64;
            for m in -li..=li {
                for n in (-li..=li).step_by(3) {
                    let mut acc = 0.0;
                    for mp in -li..=li {
                        acc += w.get(l, mp, m) * w.get(l, mp, n);
                    }
                    let expect = if m == n { 1.0 } else { 0.0 };
                    assert!((acc - expect).abs() < 1e-12, "l={l} m={m} n={n}: {acc}");
                }
            }
        }
    }

    #[test]
    fn symmetries_hold_numerically() {
        let w = WignerPiHalf::new(10);
        for l in [2usize, 7, 10] {
            let li = l as i64;
            for mp in -li..=li {
                for m in -li..=li {
                    let d = w.get(l, mp, m);
                    let sym1 = neg_one_pow(mp - m) * w.get(l, m, mp);
                    let sym2 = neg_one_pow(mp - m) * w.get(l, -mp, -m);
                    assert!((d - sym1).abs() < 1e-12, "transpose sym l={l} {mp},{m}");
                    assert!((d - sym2).abs() < 1e-12, "negate sym l={l} {mp},{m}");
                }
            }
        }
    }

    #[test]
    fn matches_normalized_legendre_at_equator() {
        // Y_{ℓm}(π/2, 0) = sqrt((2ℓ+1)/4π) d^ℓ_{m,0}(π/2)  (paper, §III.A.1)
        // and Y_{ℓm}(θ, 0) = λ_ℓ^m(cos θ).
        let lmax = 20;
        let w = WignerPiHalf::new(lmax);
        let t = LegendreTable::new(lmax);
        let lam = t.eval(std::f64::consts::PI / 2.0);
        for l in 0..=lmax {
            for m in 0..=l {
                let lhs = lam[idx(l, m)];
                let rhs = ((2.0 * l as f64 + 1.0) / (4.0 * std::f64::consts::PI)).sqrt()
                    * w.get(l, m as i64, 0);
                assert!(
                    (lhs - rhs).abs() < 1e-12,
                    "l={l} m={m}: λ={lhs} vs wigner {rhs}"
                );
            }
        }
    }

    #[test]
    fn fourier_expansion_of_wigner_d_theta() {
        // The SHT's core identity (paper eq. above (6)):
        // d^ℓ_{m,0}(θ) = i^{−m} Σ_{m'} d^ℓ_{m',0}(π/2) d^ℓ_{m',m}(π/2) e^{i m' θ},
        // cross-checked against λ via d^ℓ_{m,0}(θ) = sqrt(4π/(2ℓ+1)) λ_ℓ^m(cosθ).
        let lmax = 12;
        let w = WignerPiHalf::new(lmax);
        let t = LegendreTable::new(lmax);
        for &theta in &[0.4f64, 1.3, 2.0] {
            let lam = t.eval(theta);
            for l in 0..=lmax {
                let li = l as i64;
                for m in 0..=l {
                    let mi = m as i64;
                    let mut acc = Complex64::ZERO;
                    for mp in -li..=li {
                        acc += Complex64::cis(mp as f64 * theta)
                            * (w.get(l, mp, 0) * w.get(l, mp, mi));
                    }
                    let rhs = Complex64::i_pow(-mi) * acc;
                    let lhs = (4.0 * std::f64::consts::PI / (2.0 * l as f64 + 1.0)).sqrt()
                        * lam[idx(l, m)];
                    assert!(
                        (rhs.re - lhs).abs() < 1e-11 && rhs.im.abs() < 1e-11,
                        "l={l} m={m} θ={theta}: {rhs:?} vs {lhs}"
                    );
                }
            }
        }
    }

    #[test]
    fn storage_matches_l_cubed_scaling() {
        let values = |lmax: usize| {
            let w = WignerPiHalf::new(lmax);
            (0..=lmax).map(|l| w.matrix(l).len()).sum::<usize>()
        };
        // Σ (2ℓ+1)² ≈ (4/3)(L+1)³; doubling L scales the table by ~8.
        let ratio = values(16) as f64 / values(8) as f64;
        assert!(ratio > 6.0 && ratio < 9.0, "ratio={ratio}");
    }

    #[test]
    fn high_degree_values_are_finite_and_bounded() {
        let w = WignerPiHalf::new(96);
        for l in [48usize, 96] {
            let li = l as i64;
            for mp in -li..=li {
                for m in -li..=li {
                    let d = w.get(l, mp, m);
                    assert!(
                        d.is_finite() && d.abs() <= 1.0 + 1e-9,
                        "l={l} {mp},{m}: {d}"
                    );
                }
            }
        }
    }
}
