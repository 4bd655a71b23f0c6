//! Storage accounting — the paper's "saving petabytes" arithmetic.
//!
//! An ESM ensemble stores `R × T × Nθ × Nϕ` values; the trained emulator
//! stores parameters once (per-location trend/σ, diagonal `Φ_p`, the factor
//! `V ∈ R^{L²×L²}`, `v²`) and regenerates unlimited realizations. This
//! module quantifies both sides plus the $/TB/yr carrying cost quoted for
//! NCAR, and carries the CMIP/DYAMOND reference volumes from §I.

/// Bytes per stored sample in the archive (ERA5-style f32).
pub const ARCHIVE_BYTES_PER_VALUE: u64 = 4;
/// NCAR's quoted archival cost, $ per TB per year (§I).
pub const DOLLARS_PER_TB_YEAR: f64 = 45.0;
/// CMIP3 total volume in bytes (~40 TB, §I).
pub const CMIP3_BYTES: f64 = 40.0 * TB;
/// CMIP5 total volume (~2 PB).
pub const CMIP5_BYTES: f64 = 2.0 * PB;
/// CMIP6 total volume (~28 PB).
pub const CMIP6_BYTES: f64 = 28.0 * PB;
/// SCREAM's DYAMOND output rate: ~4.5 TB per simulated day (§I).
pub const SCREAM_BYTES_PER_DAY: f64 = 4.5 * TB;

/// One terabyte.
pub const TB: f64 = 1e12;
/// One petabyte.
pub const PB: f64 = 1e15;

/// Storage model of one emulator deployment.
#[derive(Debug, Clone)]
pub struct StorageModel {
    /// Ensemble members the archive would hold.
    pub ensemble_size: u64,
    /// Time steps per member.
    pub t_max: u64,
    /// Grid points per field.
    pub npoints: u64,
    /// Emulator band-limit.
    pub lmax: u64,
    /// Harmonic pairs in the trend model.
    pub k_harmonics: u64,
    /// VAR order.
    pub var_order: u64,
}

impl StorageModel {
    /// Bytes to store the raw simulation ensemble.
    pub fn ensemble_bytes(&self) -> f64 {
        (self.ensemble_size * self.t_max * self.npoints * ARCHIVE_BYTES_PER_VALUE) as f64
    }

    /// Bytes to store the trained emulator (f64 parameters):
    /// per-location trend (β₀, β₁, β₂, ρ, σ, v and 2K harmonics), the
    /// diagonal `Φ_p` (P·L²), and the dense factor `V` (L²(L²+1)/2).
    pub fn emulator_bytes(&self) -> f64 {
        let per_location = 6 + 2 * self.k_harmonics;
        let l2 = self.lmax * self.lmax;
        let trend = self.npoints * per_location;
        let var = self.var_order * l2;
        let factor = l2 * (l2 + 1) / 2;
        ((trend + var + factor) * 8) as f64
    }

    /// Compression ratio: archive bytes per emulator byte.
    pub fn savings_ratio(&self) -> f64 {
        self.ensemble_bytes() / self.emulator_bytes()
    }

    /// Bytes saved by replacing the archive with the emulator.
    pub fn bytes_saved(&self) -> f64 {
        (self.ensemble_bytes() - self.emulator_bytes()).max(0.0)
    }

    /// Annual dollars saved.
    pub fn dollars_saved_per_year(&self) -> f64 {
        self.bytes_saved() / TB * DOLLARS_PER_TB_YEAR
    }
}

/// The paper's headline configuration: hourly emulation at 0.034°
/// (L = 5219) over `years` years; one year = 477 billion points per
/// realization (§I).
pub fn paper_headline_model(ensemble_size: u64, years: u64) -> StorageModel {
    // 0.034° ⇒ roughly 5220×10440 grid; the paper quotes 477e9 points for a
    // single year of hourly data: 8760 × Nθ × Nϕ ≈ 477e9.
    let npoints = 5_220u64 * 10_440;
    StorageModel {
        ensemble_size,
        t_max: 8_760 * years,
        npoints,
        lmax: 5_219,
        k_harmonics: 5,
        var_order: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_single_year_matches_quoted_points() {
        let m = paper_headline_model(1, 1);
        // The paper quotes 477 billion points for one emulated year; at
        // archive f32 that is ~1.9 TB per realization-year.
        let pts = m.t_max * m.npoints;
        assert!((pts as f64 - 477e9).abs() / 477e9 < 0.02, "points {pts}");
        assert!(m.ensemble_bytes() > 1.5 * TB && m.ensemble_bytes() < 2.5 * TB);
    }

    #[test]
    fn century_scale_ensemble_saves_petabytes() {
        // A CESM-LENS-style 100-member ensemble over the 83-year ERA5 span
        // at the headline resolution: ~15.8 PB of archive replaced by a
        // ~3 PB emulator (V dominates at L = 5219).
        let m = paper_headline_model(100, 83);
        assert!(m.ensemble_bytes() > 14.0 * PB && m.ensemble_bytes() < 18.0 * PB);
        assert!(
            m.bytes_saved() > 10.0 * PB,
            "saved {}",
            m.bytes_saved() / PB
        );
        assert!(m.savings_ratio() > 4.0, "ratio {}", m.savings_ratio());
    }

    #[test]
    fn small_configuration_numbers() {
        let m = StorageModel {
            ensemble_size: 5,
            t_max: 365 * 30,
            npoints: 721 * 1440,
            lmax: 64,
            k_harmonics: 5,
            var_order: 3,
        };
        let e = m.ensemble_bytes();
        assert_eq!(e, (5u64 * 365 * 30 * 721 * 1440 * 4) as f64);
        assert!(m.emulator_bytes() < e, "emulator must be smaller");
        assert!(m.savings_ratio() > 100.0, "ratio {}", m.savings_ratio());
        assert!(m.dollars_saved_per_year() > 0.0);
    }

    #[test]
    fn reference_volumes_ordered() {
        assert!(CMIP3_BYTES < CMIP5_BYTES && CMIP5_BYTES < CMIP6_BYTES);
        assert_eq!(CMIP6_BYTES / PB, 28.0);
        // 40 days of SCREAM ≈ 180 TB.
        assert!((SCREAM_BYTES_PER_DAY * 40.0 / TB - 180.0).abs() < 1.0);
    }

    #[test]
    fn emulator_bytes_grow_with_bandlimit() {
        let base = StorageModel {
            ensemble_size: 1,
            t_max: 1000,
            npoints: 10_000,
            lmax: 32,
            k_harmonics: 5,
            var_order: 3,
        };
        let big = StorageModel {
            lmax: 64,
            ..base.clone()
        };
        // V scales as L⁴/2: doubling L multiplies the factor by ~16.
        assert!(big.emulator_bytes() > 10.0 * base.emulator_bytes());
    }
}
