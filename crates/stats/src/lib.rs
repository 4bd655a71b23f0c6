//! # exaclim-stats
//!
//! The statistical model of the climate emulator (paper §III.A):
//!
//! * [`forcing`] — radiative-forcing trajectories `x_t` (annual scale),
//! * [`trend`] — the deterministic mean model of eq. (2): intercept,
//!   current and exponentially lagged forcing response, and `K` harmonic
//!   pairs capturing seasonal/diurnal cycles; fitted per location by OLS
//!   with a profile grid search over the lag-decay `ρ`,
//! * [`var`] — the VAR(P) temporal model on spherical-harmonic coefficient
//!   vectors `f_t ∈ R^{L²}` with diagonal `Φ_p`,
//! * [`covariance`] — the empirical innovation covariance `Û` of eq. (9)
//!   with the paper's positive-definite diagonal perturbation,
//! * [`emulate`] — sampling: `ξ_t = V η_t`, VAR forward recursion, ready
//!   for the inverse SHT.

pub mod covariance;
pub mod emulate;
pub mod forcing;
pub mod trend;
pub mod tukey;
pub mod var;

pub use covariance::empirical_covariance;
pub use emulate::CoefficientSampler;
pub use forcing::ForcingSeries;
pub use trend::{TrendFit, TrendModel};
pub use tukey::{fit_tukey_gh, TukeyGH};
pub use var::{fit_diagonal_var, fit_diagonal_var_multi, DiagonalVar};
