//! # exaclim-sphere
//!
//! Spherical geometry and special-function machinery shared by the SHT and
//! the climate-data generator:
//!
//! * [`grid`] — the paper's latitude–longitude sampling: the ERA5-style
//!   equiangular grid (includes both poles, `Nθ × Nϕ`) with its
//!   Clenshaw–Curtis ring weights,
//! * [`legendre`] — fully normalized associated Legendre functions
//!   `λ_ℓ^m` with Condon–Shortley phase, via stable three-term recursions,
//! * [`wigner`] — Wigner-d matrices at `β = π/2`, the precomputed tensor at
//!   the heart of the paper's FFT-based SHT (eqs. 6–7),
//! * [`harmonics`] — spherical-harmonic evaluation and the analytic
//!   `I(q) = ∫₀^π e^{iqθ} sinθ dθ` integrals (eq. 8).

pub mod grid;
pub mod harmonics;
pub mod legendre;
pub mod wigner;

pub use grid::EquiangularGrid;
pub use harmonics::{integral_iq, ylm};
pub use legendre::LegendreTable;
pub use wigner::WignerPiHalf;
