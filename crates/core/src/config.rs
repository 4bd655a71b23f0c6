//! Emulator configuration.

use exaclim_linalg::precision::PrecisionPolicy;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the climate emulator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmulatorConfig {
    /// Spherical-harmonic band-limit `L` of the stochastic component.
    pub lmax: usize,
    /// Harmonic pairs `K` in the mean-trend model (paper: 5).
    pub k_harmonics: usize,
    /// Time steps per period `τ` (12 monthly / 365 daily / 8760 hourly).
    pub tau: usize,
    /// VAR order `P` (paper: 3).
    pub var_order: usize,
    /// Grid of candidate lag-decay values `ρ` for the trend profile fit.
    pub rho_grid: Vec<f64>,
    /// Precision policy for the covariance Cholesky.
    pub precision: PrecisionPolicy,
    /// Tile side of the covariance factorization (must divide `L²`).
    pub tile: usize,
    /// Cap on the lanes of the task-parallel Cholesky. The lanes are the
    /// shared pool's, so `EXACLIM_THREADS` caps them too. Kept because the
    /// frozen benchmark sets it (ROADMAP 2(b) drops that use).
    pub workers: usize,
}

impl EmulatorConfig {
    /// Small daily configuration for tests/examples at band-limit `lmax`.
    pub fn small(lmax: usize) -> Self {
        Self {
            lmax,
            k_harmonics: 3,
            tau: 365,
            var_order: 2,
            rho_grid: vec![0.0, 0.3, 0.6, 0.9],
            precision: PrecisionPolicy::dp(),
            tile: lmax, // L divides L²
            workers: 4,
        }
    }

    /// The paper's choices (`K = 5`, `P = 3`) at a given band-limit and
    /// temporal resolution.
    pub fn paper(lmax: usize, tau: usize) -> Self {
        Self {
            lmax,
            k_harmonics: 5,
            tau,
            var_order: 3,
            rho_grid: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            precision: PrecisionPolicy::dp_hp(),
            tile: lmax,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }

    /// Dimension of the coefficient space (`L²`).
    pub fn coeff_dim(&self) -> usize {
        self.lmax * self.lmax
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn check(&self) -> Result<(), String> {
        if self.lmax < 2 {
            return Err("band-limit must be at least 2".into());
        }
        if !self.coeff_dim().is_multiple_of(self.tile) {
            return Err(format!(
                "tile {} must divide L² = {}",
                self.tile,
                self.coeff_dim()
            ));
        }
        if self.tau == 0 {
            return Err("period τ must be at least one step".into());
        }
        if self.var_order == 0 {
            return Err("VAR order must be positive".into());
        }
        if self.rho_grid.is_empty() {
            return Err("rho grid must be non-empty".into());
        }
        if self.rho_grid.iter().any(|r| !(0.0..1.0).contains(r)) {
            return Err("rho values must lie in [0, 1)".into());
        }
        if self.workers == 0 {
            return Err("need at least one worker".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        assert!(EmulatorConfig::small(8).check().is_ok());
        assert_eq!(EmulatorConfig::small(8).coeff_dim(), 64);
    }

    #[test]
    fn paper_config_matches_paper_constants() {
        let c = EmulatorConfig::paper(720, 8760);
        assert_eq!(c.k_harmonics, 5);
        assert_eq!(c.var_order, 3);
        assert_eq!(c.tau, 8760);
        assert!(c.check().is_ok());
    }

    #[test]
    fn check_catches_bad_tile() {
        let mut c = EmulatorConfig::small(8);
        c.tile = 7;
        assert!(c.check().unwrap_err().contains("divide"));
    }

    #[test]
    fn check_catches_zero_period() {
        let mut c = EmulatorConfig::small(8);
        c.tau = 0;
        assert!(c.check().unwrap_err().contains("period"));
    }

    #[test]
    fn check_catches_bad_rho() {
        let mut c = EmulatorConfig::small(8);
        c.rho_grid = vec![1.5];
        assert!(c.check().is_err());
    }

    #[test]
    fn config_serializes() {
        let c = EmulatorConfig::small(8);
        let json = serde_json::to_string(&c).unwrap();
        let back: EmulatorConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.lmax, 8);
        assert_eq!(back.rho_grid, c.rho_grid);
    }
}
