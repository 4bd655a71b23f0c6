//! Precision lattice and tile-assignment policies.
//!
//! The paper evaluates four variants of the covariance Cholesky (§IV.B):
//! full DP; a diagonal DP band with the rest SP (DP/SP); DP band, 5% SP,
//! rest HP (DP/SP/HP); and DP band with the rest HP (DP/HP). Assignment is
//! by band distance from the diagonal — tiles near the diagonal carry the
//! strongest correlations — or adaptively from tile norms (the tile-centric
//! approach of ref. \[47\]).

use serde::{Deserialize, Serialize};

/// Storage/compute precision of one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// IEEE binary16, multiply–accumulate in f32 (tensor-core semantics).
    Half,
    /// IEEE binary32.
    Single,
    /// IEEE binary64.
    Double,
}

impl Precision {
    /// Bytes per matrix element in this precision.
    pub fn bytes(self) -> usize {
        match self {
            Precision::Half => 2,
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }

    /// Unit roundoff (round-to-nearest).
    pub fn unit_roundoff(self) -> f64 {
        match self {
            Precision::Half => 1.0 / 2048.0,                // 2^-11
            Precision::Single => f32::EPSILON as f64 / 2.0, // 2^-24
            Precision::Double => f64::EPSILON / 2.0,        // 2^-53
        }
    }

    /// Short label used in reports ("DP", "SP", "HP").
    pub fn label(self) -> &'static str {
        match self {
            Precision::Half => "HP",
            Precision::Single => "SP",
            Precision::Double => "DP",
        }
    }

    /// The wider of two precisions.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

/// How precisions are assigned to the tiles of a symmetric tiled matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PrecisionPolicy {
    /// Every tile in one precision.
    Uniform(Precision),
    /// Band-based: tile `(i, j)` gets DP when `|i−j| < dp_band`, SP when
    /// `|i−j| < dp_band + sp_band`, HP otherwise.
    Band {
        /// Width (in tiles) of the double-precision diagonal band.
        dp_band: usize,
        /// Width (in tiles) of the single-precision band outside it.
        sp_band: usize,
    },
    /// Norm-adaptive: relative to the largest tile Frobenius norm, tiles
    /// above `dp_threshold` stay DP, above `sp_threshold` SP, else HP.
    Adaptive {
        /// Relative norm above which a tile stays double precision.
        dp_threshold: f64,
        /// Relative norm above which a tile is single precision.
        sp_threshold: f64,
    },
}

impl PrecisionPolicy {
    /// The paper's reference variant: all DP.
    pub fn dp() -> Self {
        PrecisionPolicy::Uniform(Precision::Double)
    }

    /// DP diagonal band (width 1), SP elsewhere — the paper's "DP/SP".
    pub fn dp_sp() -> Self {
        PrecisionPolicy::Band {
            dp_band: 1,
            sp_band: usize::MAX,
        }
    }

    /// DP band, ~5% of the off-diagonal as SP, rest HP — "DP/SP/HP".
    /// `nt` is the tile count per dimension; 5% of the band distance
    /// range is given to SP.
    pub fn dp_sp_hp(nt: usize) -> Self {
        PrecisionPolicy::Band {
            dp_band: 1,
            sp_band: (nt / 20).max(1),
        }
    }

    /// DP band, HP elsewhere — the paper's fastest "DP/HP".
    pub fn dp_hp() -> Self {
        PrecisionPolicy::Band {
            dp_band: 1,
            sp_band: 0,
        }
    }

    /// Decide the precision of tile `(i, j)` (row ≥ col in the lower
    /// triangle). `rel_norm` is the tile's Frobenius norm relative to the
    /// largest tile norm, used only by the adaptive policy.
    pub fn assign(&self, i: usize, j: usize, rel_norm: f64) -> Precision {
        let dist = i.abs_diff(j);
        match *self {
            PrecisionPolicy::Uniform(p) => p,
            PrecisionPolicy::Band { dp_band, sp_band } => {
                if dist < dp_band {
                    Precision::Double
                } else if dist < dp_band.saturating_add(sp_band) {
                    Precision::Single
                } else {
                    Precision::Half
                }
            }
            PrecisionPolicy::Adaptive {
                dp_threshold,
                sp_threshold,
            } => {
                if i == j || rel_norm >= dp_threshold {
                    Precision::Double
                } else if rel_norm >= sp_threshold {
                    Precision::Single
                } else {
                    Precision::Half
                }
            }
        }
    }

    /// Report label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match *self {
            PrecisionPolicy::Uniform(p) => p.label().to_string(),
            PrecisionPolicy::Band {
                sp_band: usize::MAX,
                ..
            } => "DP/SP".to_string(),
            PrecisionPolicy::Band { sp_band: 0, .. } => "DP/HP".to_string(),
            PrecisionPolicy::Band { .. } => "DP/SP/HP".to_string(),
            PrecisionPolicy::Adaptive { .. } => "adaptive".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_bytes() {
        assert!(Precision::Double > Precision::Single);
        assert!(Precision::Single > Precision::Half);
        assert_eq!(Precision::Double.bytes(), 8);
        assert_eq!(Precision::Single.bytes(), 4);
        assert_eq!(Precision::Half.bytes(), 2);
        assert_eq!(Precision::Half.max(Precision::Double), Precision::Double);
    }

    #[test]
    fn unit_roundoffs_are_ordered() {
        assert!(Precision::Double.unit_roundoff() < Precision::Single.unit_roundoff());
        assert!(Precision::Single.unit_roundoff() < Precision::Half.unit_roundoff());
        assert_eq!(Precision::Half.unit_roundoff(), 2f64.powi(-11));
    }

    #[test]
    fn band_policy_dp_sp() {
        let p = PrecisionPolicy::dp_sp();
        assert_eq!(p.assign(3, 3, 1.0), Precision::Double);
        assert_eq!(p.assign(5, 3, 1.0), Precision::Single);
        assert_eq!(p.assign(20, 0, 1.0), Precision::Single);
        assert_eq!(p.label(), "DP/SP");
    }

    #[test]
    fn band_policy_dp_hp() {
        let p = PrecisionPolicy::dp_hp();
        assert_eq!(p.assign(4, 4, 1.0), Precision::Double);
        assert_eq!(p.assign(5, 4, 1.0), Precision::Half);
        assert_eq!(p.label(), "DP/HP");
    }

    #[test]
    fn band_policy_three_level() {
        let p = PrecisionPolicy::dp_sp_hp(40); // sp_band = 2
        assert_eq!(p.assign(7, 7, 1.0), Precision::Double);
        assert_eq!(p.assign(8, 7, 1.0), Precision::Single);
        assert_eq!(p.assign(9, 7, 1.0), Precision::Single);
        assert_eq!(p.assign(10, 7, 1.0), Precision::Half);
        assert_eq!(p.label(), "DP/SP/HP");
    }

    #[test]
    fn band_widths_saturate_instead_of_overflowing() {
        // `dp_band + sp_band` overflowed (a panic in debug builds) for any
        // huge `sp_band` other than the `usize::MAX` sentinel of DP/SP.
        let p = PrecisionPolicy::Band {
            dp_band: 2,
            sp_band: usize::MAX - 1,
        };
        assert_eq!(p.assign(1, 0, 1.0), Precision::Double);
        assert_eq!(p.assign(9, 0, 1.0), Precision::Single);
        assert_eq!(
            PrecisionPolicy::dp_sp().assign(9, 0, 1.0),
            Precision::Single
        );
    }

    #[test]
    fn adaptive_policy_uses_norms() {
        let p = PrecisionPolicy::Adaptive {
            dp_threshold: 0.5,
            sp_threshold: 0.01,
        };
        assert_eq!(p.assign(2, 2, 0.0), Precision::Double); // diagonal always DP
        assert_eq!(p.assign(9, 1, 0.9), Precision::Double);
        assert_eq!(p.assign(9, 1, 0.1), Precision::Single);
        assert_eq!(p.assign(9, 1, 0.001), Precision::Half);
    }

    #[test]
    fn uniform_label() {
        assert_eq!(PrecisionPolicy::dp().label(), "DP");
    }
}
