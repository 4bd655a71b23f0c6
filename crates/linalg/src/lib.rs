//! # exaclim-linalg
//!
//! Tile-based dense linear algebra with mixed precision — the numerical core
//! the paper accelerates on GPUs (§III.C–D), reproduced here with CPU
//! kernels whose *rounding semantics* match the hardware ones:
//!
//! * [`mod@f16`] — IEEE binary16 with round-to-nearest-even (slice
//!   conversions on F16C where the CPU has it, bit-equal to the software
//!   reference); half precision tiles store `u16` payloads and
//!   multiply–accumulate in `f32`, mirroring tensor-core MMA behaviour,
//! * [`precision`] — the DP/SP/HP lattice and the paper's four variant
//!   policies (DP, DP/SP, DP/SP/HP, DP/HP) via band-distance or
//!   norm-adaptive tile assignment,
//! * [`tile`] / [`tiled`] — square tiles in one of three storage precisions
//!   and the 2D tiled symmetric matrix they compose,
//! * [`kernels`] — register-blocked POTRF/TRSM/SYRK/GEMM on tiles, computed
//!   in the precision of the updated tile from operands converted and
//!   packed once per consumer precision; compiled a second time for AVX2
//!   (no FMA, same bits) and chosen at run time,
//! * [`cholesky`] — the four task bodies of the right-looking
//!   mixed-precision tile Cholesky, its sequential driver, and the
//!   factorization residual,
//! * [`dense`] — small dense helpers (matmul, Cholesky, triangular and OLS
//!   solves) for the statistics layer.

pub mod cholesky;
pub mod dense;
pub mod f16;
pub mod isa;
pub mod kernels;
pub mod precision;
pub mod tile;
pub mod tiled;

pub use cholesky::{tile_cholesky, CholeskyStats, TileTasks};
pub use dense::Matrix;
pub use f16::Half;
pub use precision::{Precision, PrecisionPolicy};
pub use tile::Tile;
pub use tiled::TiledMatrix;
