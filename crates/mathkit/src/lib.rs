//! # exaclim-mathkit
//!
//! Math substrate for the `exaclim` climate emulator: complex arithmetic,
//! special functions (log-gamma, log-factorials), natural cubic splines,
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
