//! Placeholder for the `crossbeam-deque` package name; it has no items.
//!
//! Nothing imports it: the task-graph executor drains one priority heap on
//! the shared worker pool's lanes. `exaclim-runtime` keeps its dependency
//! on this package only because the frozen `benchmark/Cargo.lock` records
//! it; the next benchmark change (ROADMAP 2(b)) drops the edge and deletes
//! this package.
