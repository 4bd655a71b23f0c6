//! Placeholder for the `rayon` package name: the shared worker pool,
//! re-exported.
//!
//! All data parallelism runs on `exaclim_runtime::pool` through its own
//! API (`parallel_for`, `parallel_chunks_mut`, `map`). `exaclim-stats` and
//! `exaclim-sht` reach that pool through this re-export because the frozen
//! `benchmark/Cargo.lock` records their dependency on `rayon`, not on
//! `exaclim-runtime`; the next benchmark change (ROADMAP 2(b)) swaps those
//! edges and deletes this package.

pub use exaclim_runtime::pool;
