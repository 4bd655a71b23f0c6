//! Double-precision complex arithmetic.
//!
//! A deliberately small, `Copy`, `#[repr(C)]` complex type. The FFT and the
//! spherical harmonic transform are the only heavy users; they need
//! multiply/add, conjugation, and `exp(iθ)` construction, all of which are
//! branch-free here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Self = Self { re: 0.0, im: 1.0 };

    /// Create a complex number from its parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real complex number.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// `exp(i * theta)` — a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self { re: c, im: s }
    }

    /// `i^k` for integer `k` (exact, no rounding).
    #[inline]
    pub fn i_pow(k: i64) -> Self {
        match k.rem_euclid(4) {
            0 => Self::new(1.0, 0.0),
            1 => Self::new(0.0, 1.0),
            2 => Self::new(-1.0, 0.0),
            _ => Self::new(0.0, -1.0),
        }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus (uses `hypot` for robustness near over/underflow).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplication by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Multiplicative inverse.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Complex exponential.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        let (s, c) = self.im.sin_cos();
        Self {
            re: r * c,
            im: r * s,
        }
    }

    /// Square root on the principal branch.
    #[inline]
    pub fn sqrt(self) -> Self {
        let m = self.abs();
        let re = ((m + self.re) * 0.5).max(0.0).sqrt();
        let im_mag = ((m - self.re) * 0.5).max(0.0).sqrt();
        Self {
            re,
            im: if self.im < 0.0 { -im_mag } else { im_mag },
        }
    }

    /// True if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f64> for Complex64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl Add for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Self;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z · w⁻¹ is the definition
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let a = Complex64::new(3.0, -4.0);
        let b = Complex64::new(-1.5, 2.25);
        assert_eq!(a + b - b, a);
        let p = a * b;
        assert!((p / b - a).abs() < EPS);
        assert_eq!(-(-a), a);
        assert_eq!(a * Complex64::ONE, a);
        assert_eq!(a + Complex64::ZERO, a);
    }

    #[test]
    fn conj_and_norm() {
        let a = Complex64::new(3.0, 4.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!((a * a.conj()).re, 25.0);
        assert!((a * a.conj()).im.abs() < EPS);
    }

    #[test]
    fn cis_is_unit_circle() {
        for k in 0..16 {
            let t = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex64::cis(t);
            assert!((z.abs() - 1.0).abs() < EPS);
            assert!(
                (z.arg() - t).rem_euclid(2.0 * std::f64::consts::PI) < 1e-9
                    || (t - z.arg()).rem_euclid(2.0 * std::f64::consts::PI) < 1e-9
            );
        }
    }

    #[test]
    fn i_pow_cycles() {
        assert_eq!(Complex64::i_pow(0), Complex64::ONE);
        assert_eq!(Complex64::i_pow(1), Complex64::I);
        assert_eq!(Complex64::i_pow(2), Complex64::new(-1.0, 0.0));
        assert_eq!(Complex64::i_pow(3), Complex64::new(0.0, -1.0));
        assert_eq!(Complex64::i_pow(4), Complex64::ONE);
        assert_eq!(Complex64::i_pow(-1), Complex64::new(0.0, -1.0));
        assert_eq!(Complex64::i_pow(-2), Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn exp_matches_euler() {
        let z = Complex64::new(0.0, std::f64::consts::PI);
        let e = z.exp();
        assert!((e.re + 1.0).abs() < EPS && e.im.abs() < EPS);
        let z = Complex64::new(1.0, 0.5);
        let e = z.exp();
        assert!((e.abs() - 1f64.exp()).abs() < 1e-10);
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[
            (4.0, 0.0),
            (-4.0, 0.0),
            (3.0, 4.0),
            (-3.0, -4.0),
            (0.0, 2.0),
        ] {
            let z = Complex64::new(re, im);
            let s = z.sqrt();
            let back = s * s;
            assert!((back - z).abs() < 1e-10, "sqrt({z:?})^2 = {back:?}");
            assert!(s.re >= 0.0, "principal branch");
        }
    }

    #[test]
    fn sum_folds() {
        let v = [Complex64::ONE, Complex64::I, Complex64::new(1.0, 1.0)];
        let s: Complex64 = v.iter().copied().sum();
        assert_eq!(s, Complex64::new(2.0, 2.0));
    }
}
