//! # exaclim-repro
//!
//! Umbrella package of the `exaclim` workspace: hosts the runnable examples
//! (`examples/`) and the cross-crate integration tests (`tests/`), which
//! import the workspace crates by their own names. The public API lives in
//! [`exaclim`] (crate `exaclim-core`); this library exports nothing of its
//! own.
