//! # exaclim-cluster
//!
//! A performance model of the paper's exascale experiments. The evaluation
//! hardware (Frontier, Alps, Leonardo, Summit — §IV.D) is not available to
//! this reproduction, so Figures 5–8 and Table I are regenerated from a
//! panel-level simulation of the distributed mixed-precision tile Cholesky:
//!
//! * [`machines`] — published per-GPU peaks, derated kernel efficiencies,
//!   node counts, and interconnect parameters of the four systems,
//! * [`sim`] — the panel-by-panel timing model: 2D block-cyclic tile
//!   distribution, per-precision GEMM rates, broadcast trees with
//!   latency-first vs bandwidth-first ordering (§III.C), and sender- vs
//!   receiver-side precision conversion on the wire (§V.A),
//! * [`distsim`] — the exact message ledger of the same 2D block-cyclic
//!   distribution at small tile counts: messages, payload bytes and
//!   conversions per placement, the second half of Figure 5,
//! * [`scaling`] — weak- and strong-scaling drivers (Figure 7),
//! * [`costmodel`] — the emulator-design cost model of Figure 1
//!   (`O(L³T + L⁴)` axisymmetric vs `O(L⁴T + L⁶)` anisotropic).
//!
//! Absolute numbers are calibrated to the published machine peaks; the
//! claims reproduced are the *relative* ones — variant speedups, scaling
//! efficiencies, who wins where (the `calibrate` bin of `exaclim-bench`
//! prints each beside the paper's number).

pub mod costmodel;
pub mod distsim;
pub mod energy;
pub mod machines;
pub mod scaling;
pub mod sim;

pub use costmodel::{CostModel, EmulatorClass};
pub use distsim::{simulate_distribution, ConversionSide, DistConfig, MessageLedger};
pub use energy::{simulate_energy, EnergyModel, EnergyReport};
pub use machines::{Machine, MachineSpec};
pub use sim::{simulate_cholesky, CollectiveOrder, SimConfig, SimResult, Variant};
