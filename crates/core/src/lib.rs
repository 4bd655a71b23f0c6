//! # exaclim — an exascale-class climate emulator in Rust
//!
//! Reproduction of *"Boosting Earth System Model Outputs And Saving
//! PetaBytes in Their Storage Using Exascale Climate Emulators"*
//! (Abdulah et al., SC 2024). The crate assembles the full pipeline of the
//! paper's Figure 3:
//!
//! 1. **Mean & scale** — per-location distributed-lag + harmonic trend
//!    (eq. 2) and residual standardization ([`exaclim_stats::trend`]),
//! 2. **Spherical harmonic transform** — the Wigner-d/FFT equiangular SHT
//!    of eqs. 4–8 ([`exaclim_sht`]),
//! 3. **Temporal model** — diagonal VAR(P) on coefficient vectors
//!    ([`exaclim_stats::var`]),
//! 4. **Innovation covariance** — empirical `Û` (eq. 9) factorized by the
//!    task-parallel mixed-precision tile Cholesky
//!    ([`exaclim_runtime::parallel_tile_cholesky`]), which is also the
//!    probe of its diagonal-jitter repair ([`factor_covariance`]),
//! 5. **Emulation** — sample `ξ = Vη`, run the VAR forward, inverse SHT,
//!    re-apply `σ` and `m_t` (§III.B).
//!
//! ```no_run
//! use exaclim::{ClimateEmulator, EmulatorConfig};
//! use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
//!
//! let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(16));
//! let training = gen.generate_member(0, 2 * 365);
//! let emulator = ClimateEmulator::train(&training, EmulatorConfig::small(16)).unwrap();
//! let emulation = emulator.emulate(365, 42).unwrap();
//! assert_eq!(emulation.t_max, 365);
//! ```

pub mod config;
pub mod emulator;
mod snapshot;
pub mod validate;

pub use config::EmulatorConfig;
pub use emulator::{
    factor_covariance, ClimateEmulator, CovarianceFactor, EmulationError, TrainedEmulator,
};
pub use validate::{validate_consistency, ConsistencyReport};

// Re-export the substrate crates under one roof.
pub use exaclim_climate as climate;
pub use exaclim_cluster as cluster;
pub use exaclim_fft as fft;
pub use exaclim_linalg as linalg;
pub use exaclim_mathkit as mathkit;
pub use exaclim_runtime as runtime;
pub use exaclim_sht as sht;
pub use exaclim_sphere as sphere;
pub use exaclim_stats as stats;
pub use exaclim_store as store;
