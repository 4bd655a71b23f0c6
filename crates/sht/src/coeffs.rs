//! Spherical-harmonic coefficient containers for real fields.
//!
//! A real field needs only the `m ≥ 0` coefficients; negative orders follow
//! from `z_{ℓ,−m} = (−1)^m conj(z_{ℓm})`. The emulator's VAR model works on
//! the isometric real packing `f ∈ R^{L²}` (paper §III.A.3): per degree `ℓ`
//! the entries are `z_{ℓ0}` followed by `√2·Re z_{ℓm}, √2·Im z_{ℓm}` for
//! `m = 1…ℓ` — exactly `2ℓ+1` reals, `L²` in total, preserving inner
//! products so covariance estimation in the packed space matches the complex
//! one.

use exaclim_mathkit::Complex64;
use exaclim_sphere::legendre::{idx, packed_len};

/// Coefficients `z_{ℓm}` for `0 ≤ m ≤ ℓ < L` of a real field.
#[derive(Debug, Clone, PartialEq)]
pub struct HarmonicCoeffs {
    lmax: usize,
    /// Packed by [`idx`]`(l, m)` over `m ≥ 0`.
    data: Vec<Complex64>,
}

impl HarmonicCoeffs {
    /// All-zero coefficients with band-limit `L = lmax` (degrees `< lmax`).
    pub fn zeros(lmax: usize) -> Self {
        assert!(lmax >= 1, "band-limit must be at least 1");
        Self {
            lmax,
            data: vec![Complex64::ZERO; packed_len(lmax - 1)],
        }
    }

    /// Band-limit `L`: degrees run over `0 ≤ ℓ < L`.
    pub fn lmax(&self) -> usize {
        self.lmax
    }

    /// Number of stored (m ≥ 0) complex coefficients.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff no coefficients are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw packed slice (m ≥ 0, [`idx`] order).
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable raw packed slice.
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Get `z_{ℓm}` for any `|m| ≤ ℓ` (negative orders via conjugation).
    pub fn get(&self, l: usize, m: i64) -> Complex64 {
        assert!(l < self.lmax, "degree {l} out of band-limit {}", self.lmax);
        let ma = m.unsigned_abs() as usize;
        assert!(ma <= l, "|m| > l");
        let z = self.data[idx(l, ma)];
        if m >= 0 {
            z
        } else if ma.is_multiple_of(2) {
            z.conj()
        } else {
            -z.conj()
        }
    }

    /// Set `z_{ℓm}` for `m ≥ 0`. Setting `m = 0` forces a real value
    /// (required for a real field).
    pub fn set(&mut self, l: usize, m: usize, z: Complex64) {
        assert!(l < self.lmax && m <= l);
        self.data[idx(l, m)] = if m == 0 { Complex64::real(z.re) } else { z };
    }

    /// Largest absolute componentwise difference against `other`.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.lmax, other.lmax, "band-limit mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Angular power spectrum `C_ℓ = Σ_m |z_{ℓm}|²` (both signs of m).
    pub fn power_spectrum(&self) -> Vec<f64> {
        (0..self.lmax)
            .map(|l| {
                let mut p = self.data[idx(l, 0)].norm_sqr();
                for m in 1..=l {
                    p += 2.0 * self.data[idx(l, m)].norm_sqr();
                }
                p
            })
            .collect()
    }

    /// Total spectral power `Σ_ℓ C_ℓ` (= `∫|Z|²dΩ` by Parseval).
    pub fn total_power(&self) -> f64 {
        self.power_spectrum().iter().sum()
    }

    /// Isometric real packing of length `L²` (see module docs).
    pub fn to_real_vector(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.lmax * self.lmax);
        let sq2 = std::f64::consts::SQRT_2;
        for l in 0..self.lmax {
            out.push(self.data[idx(l, 0)].re);
            for m in 1..=l {
                let z = self.data[idx(l, m)];
                out.push(sq2 * z.re);
                out.push(sq2 * z.im);
            }
        }
        out
    }

    /// Inverse of [`HarmonicCoeffs::to_real_vector`].
    pub fn from_real_vector(lmax: usize, v: &[f64]) -> Self {
        assert_eq!(v.len(), lmax * lmax, "need L² entries");
        let mut c = Self::zeros(lmax);
        let inv = 1.0 / std::f64::consts::SQRT_2;
        let mut k = 0usize;
        for l in 0..lmax {
            c.data[idx(l, 0)] = Complex64::real(v[k]);
            k += 1;
            for m in 1..=l {
                c.data[idx(l, m)] = Complex64::new(v[k] * inv, v[k + 1] * inv);
                k += 2;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_packing_roundtrip() {
        let mut c = HarmonicCoeffs::zeros(6);
        let mut v = 0.1;
        for l in 0..6 {
            for m in 0..=l {
                c.set(l, m, Complex64::new(v, if m == 0 { 0.0 } else { -v * 0.5 }));
                v += 0.3;
            }
        }
        let packed = c.to_real_vector();
        assert_eq!(packed.len(), 36);
        let back = HarmonicCoeffs::from_real_vector(6, &packed);
        assert!(c.max_abs_diff(&back) < 1e-14);
    }

    #[test]
    fn real_packing_is_isometric() {
        // ‖packed‖² must equal total spectral power (both-m-signs sum).
        let mut c = HarmonicCoeffs::zeros(5);
        for l in 0..5 {
            for m in 0..=l {
                c.set(
                    l,
                    m,
                    Complex64::new((l + m) as f64 * 0.2, if m == 0 { 0.0 } else { 0.7 }),
                );
            }
        }
        let packed = c.to_real_vector();
        let norm2: f64 = packed.iter().map(|x| x * x).sum();
        assert!((norm2 - c.total_power()).abs() < 1e-12);
    }

    #[test]
    fn negative_m_convention() {
        let mut c = HarmonicCoeffs::zeros(4);
        c.set(2, 1, Complex64::new(1.0, 2.0));
        c.set(2, 2, Complex64::new(-0.5, 0.25));
        assert_eq!(c.get(2, -1), Complex64::new(-1.0, 2.0)); // (−1)^1 conj
        assert_eq!(c.get(2, -2), Complex64::new(-0.5, -0.25)); // (+1) conj
    }

    #[test]
    fn m0_forced_real() {
        let mut c = HarmonicCoeffs::zeros(3);
        c.set(1, 0, Complex64::new(2.0, 5.0));
        assert_eq!(c.get(1, 0), Complex64::real(2.0));
    }

    #[test]
    fn power_spectrum_counts_both_signs() {
        let mut c = HarmonicCoeffs::zeros(3);
        c.set(1, 0, Complex64::real(3.0));
        c.set(1, 1, Complex64::new(1.0, 1.0));
        let p = c.power_spectrum();
        assert!((p[1] - (9.0 + 2.0 * 2.0)).abs() < 1e-14);
        assert_eq!(p[0], 0.0);
        assert!((c.total_power() - p[1]).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "band-limit")]
    fn get_out_of_range_panics() {
        let c = HarmonicCoeffs::zeros(3);
        let _ = c.get(3, 0);
    }
}
