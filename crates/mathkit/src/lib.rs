//! # exaclim-mathkit
//!
//! Math substrate for the `exaclim` climate emulator: complex arithmetic,
//! special functions (log-gamma, factorial ratios), natural cubic splines,
//! random-variate generation, streaming summary statistics, and the
//! workspace's one CPU feature detection and AVX2 dispatch ([`isa`]).
//!
//! Everything here is implemented from scratch so that the rest of the
//! workspace only needs the small set of sanctioned external crates.

pub mod complex;
pub mod isa;
pub mod rng;
pub mod special;
pub mod spline;
pub mod stats;

pub use complex::Complex64;
pub use rng::{MultivariateNormal, ScannedNormals, StandardNormal};
pub use spline::CubicSpline;
pub use stats::{acf, mean, variance, OnlineStats};

/// Machine-independent comparison of floats with both absolute and relative
/// tolerance: `|a - b| <= atol + rtol * max(|a|, |b|)`.
#[inline]
pub fn approx_eq(a: f64, b: f64, atol: f64, rtol: f64) -> bool {
    (a - b).abs() <= atol + rtol * a.abs().max(b.abs())
}

/// Assert helper used across the workspace tests.
#[macro_export]
macro_rules! assert_close {
    ($a:expr, $b:expr, $tol:expr) => {{
        let (a, b, tol): (f64, f64, f64) = ($a, $b, $tol);
        assert!(
            (a - b).abs() <= tol,
            "assert_close failed: {a} vs {b} (|diff| = {} > {tol})",
            (a - b).abs()
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9, 0.0));
        assert!(!approx_eq(1.0, 1.1, 1e-9, 1e-9));
        assert!(approx_eq(1e12, 1e12 * (1.0 + 1e-10), 0.0, 1e-9));
    }
}
