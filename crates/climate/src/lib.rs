//! # exaclim-climate
//!
//! The data substrate of the reproduction. The paper trains on ERA5 surface
//! temperature (0.25°, 1940–2022) — proprietary-scale data we cannot ship —
//! so this crate generates a statistically analogous synthetic ensemble:
//!
//! * [`landsea`] — a smooth procedural land/sea mask (low-order bumps on the
//!   sphere) driving land–ocean anisotropy,
//! * [`generator`] — ERA5-like surface-temperature fields: latitudinal
//!   climatology, hemisphere-antisymmetric seasonal cycle, diurnal cycle at
//!   hourly resolution, forcing-driven warming trend, and an AR(1)
//!   spatially correlated stochastic weather component with a power-law
//!   spherical-harmonic spectrum,
//! * [`upsample`] — separable cubic-spline grid up-sampling (§IV.A's
//!   "spline interpolation to upscale the data"),
//! * [`storage`] — the storage-cost accounting behind the paper's
//!   "saving petabytes" headline: ensemble bytes vs emulator-parameter
//!   bytes, $/TB/yr, CMIP reference volumes,
//! * [`io`] — a [`Dataset`] as a single-member ECA1 archive
//!   (`exaclim-store`).

pub mod generator;
pub mod io;
pub mod landsea;
pub mod storage;
pub mod upsample;

pub use generator::{Dataset, SyntheticEra5, SyntheticEra5Config};
pub use io::{dataset_from_eca1, dataset_to_eca1};
pub use landsea::land_fraction;
pub use storage::StorageModel;
