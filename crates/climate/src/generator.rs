//! Synthetic ERA5-like surface-temperature ensembles.
//!
//! Fields are built from the same ingredients the emulator models (eq. 1–2):
//! a deterministic mean (climatology + seasonal/diurnal harmonics +
//! forcing-driven trend) plus a stochastic component — AR(1) in time on
//! spherical-harmonic coefficients with a power-law spectrum, scaled in
//! grid space by a land/ocean standard deviation. Periodic terms, trend
//! response and temporal dependence are all exercised; covariance between
//! coefficients is not. The land/ocean modulation is a per-location σ,
//! which the trend fit's standardization divides out exactly, so the field
//! the emulator sees is isotropic and its coefficients are uncorrelated.
//!
//! A member's AR(1) states are drawn one step at a time and synthesized
//! in batches (`exaclim_sht::synthesis_batch`) on the shared pool, a
//! bounded chunk of steps per call.

use crate::landsea::land_fraction;
use exaclim_mathkit::rng::StandardNormal;
use exaclim_sht::batch::pass_len;
use exaclim_sht::{synthesis_batch, HarmonicCoeffs, ShtPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

// The stats crate is not a dependency (it sits above us); a minimal forcing
// re-implementation would duplicate logic, so we inline the tiny shim here.
mod exaclim_stats_shim {
    /// Annual forcing used by the generator: the same accelerating
    /// log-CO₂ ramp as `exaclim_stats::ForcingSeries::historical_like`.
    #[derive(Debug, Clone)]
    pub struct ForcingSeries;
    impl ForcingSeries {
        /// Forcing in W/m² at `year`.
        pub fn at(year: i64) -> f64 {
            let t = (year - 1850) as f64;
            let conc = 278.0 + 145.0 * (t / 172.0).max(0.0).powf(2.2);
            5.35 * (conc / 278.0_f64).ln()
        }
    }
}

/// Slice blocks (`exaclim_fft::LANES` slices each) every pool lane
/// synthesizes per chunk of [`SyntheticEra5::generate_member`].
const SYNTH_BLOCKS_PER_LANE: usize = 2;

/// Configuration of the synthetic generator.
#[derive(Debug, Clone)]
pub struct SyntheticEra5Config {
    /// Co-latitude rings (poles included).
    pub ntheta: usize,
    /// Longitudes.
    pub nphi: usize,
    /// Band-limit of the stochastic component.
    pub lmax: usize,
    /// Steps per year: 12 monthly, 365 daily, 8760 hourly.
    pub tau: usize,
    /// First simulated year.
    pub start_year: i64,
    /// AR(1) persistence of the weather component.
    pub ar_phi: f64,
    /// Stochastic standard deviation over oceans, in kelvin.
    pub sigma_ocean: f64,
    /// Multiplier of the stochastic std over land (continentality).
    pub land_sigma_factor: f64,
    /// RNG seed; ensemble member `r` uses `seed + r`.
    pub seed: u64,
}

impl SyntheticEra5Config {
    /// A small daily configuration suitable for tests and examples.
    pub fn small_daily(lmax: usize) -> Self {
        Self {
            ntheta: lmax + 2,
            nphi: 2 * lmax + 1,
            lmax,
            tau: 365,
            start_year: 1990,
            ar_phi: 0.75,
            sigma_ocean: 1.2,
            land_sigma_factor: 2.2,
            seed: 0xC11A11E,
        }
    }
}

/// A generated ensemble: time-major fields plus the geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// `data[t · npoints + p]`, kelvin.
    pub data: Vec<f64>,
    /// Time steps.
    pub t_max: usize,
    /// Grid points per field (`ntheta · nphi`).
    pub npoints: usize,
    /// Co-latitude rings.
    pub ntheta: usize,
    /// Longitudes.
    pub nphi: usize,
    /// Calendar year of step 0.
    pub start_year: i64,
    /// Steps per year.
    pub tau: usize,
}

impl Dataset {
    /// Borrow the field at step `t`.
    pub fn field(&self, t: usize) -> &[f64] {
        &self.data[t * self.npoints..(t + 1) * self.npoints]
    }

    /// Global area-unweighted mean of field `t` (diagnostic).
    pub fn field_mean(&self, t: usize) -> f64 {
        let f = self.field(t);
        f.iter().sum::<f64>() / f.len() as f64
    }
}

/// The generator. Holds the SHT plan and the AR(1) coefficient state.
pub struct SyntheticEra5 {
    cfg: SyntheticEra5Config,
    plan: ShtPlan,
    /// Per-degree innovation std — power-law spectrum `C_ℓ ∝ (1+ℓ)^{-2.5}`.
    spectrum_std: Vec<f64>,
    /// Climatology, land mask, trend sensitivity per grid point.
    climatology: Vec<f64>,
    land: Vec<f64>,
    sensitivity: Vec<f64>,
}

impl SyntheticEra5 {
    /// Build the generator (precomputes the SHT plan and static fields).
    pub fn new(cfg: SyntheticEra5Config) -> Self {
        assert!(cfg.ntheta > cfg.lmax, "generator grid must satisfy Nθ > L");
        assert!(
            cfg.nphi >= 2 * cfg.lmax - 1,
            "generator grid must satisfy Nϕ ≥ 2L−1"
        );
        assert!((0.0..1.0).contains(&cfg.ar_phi));
        let plan = ShtPlan::equiangular(cfg.lmax, cfg.ntheta, cfg.nphi);
        let spectrum_std = (0..cfg.lmax)
            .map(|l| (1.0 + l as f64).powf(-1.25)) // std; power C_ℓ ∝ ℓ^{-2.5}
            .collect();
        let g = plan.grid();
        let np = g.nphi();
        let mut climatology = Vec::with_capacity(g.len());
        let mut land = Vec::with_capacity(g.len());
        let mut sensitivity = Vec::with_capacity(g.len());
        for i in 0..g.ntheta() {
            let theta = g.theta(i);
            for j in 0..np {
                let phi = g.phi(j);
                let lf = land_fraction(theta, phi);
                // Warm equator (~300 K), cold poles (~250 K), land slightly
                // more extreme.
                let base = 250.0 + 50.0 * theta.sin().powi(2) - 4.0 * lf;
                // Polar amplification of the warming trend.
                let sens = 0.35 + 0.45 * theta.cos().powi(2) + 0.15 * lf;
                climatology.push(base);
                land.push(lf);
                sensitivity.push(sens);
            }
        }
        Self {
            cfg,
            plan,
            spectrum_std,
            climatology,
            land,
            sensitivity,
        }
    }

    /// Grid points per field.
    pub fn npoints(&self) -> usize {
        self.plan.field_len()
    }

    /// Deterministic mean field at step `t` (0-based).
    pub fn mean_field(&self, t: usize) -> Vec<f64> {
        let cfg = &self.cfg;
        let year = cfg.start_year + (t / cfg.tau) as i64;
        let year_frac = (t % cfg.tau) as f64 / cfg.tau as f64;
        let forcing = exaclim_stats_shim::ForcingSeries::at(year);
        let season = (2.0 * std::f64::consts::PI * year_frac).cos();
        // Hourly runs also get a diurnal harmonic.
        let diurnal = if cfg.tau >= 8760 {
            (2.0 * std::f64::consts::PI * (t % 24) as f64 / 24.0).cos()
        } else {
            0.0
        };
        let g = self.plan.grid();
        let np = g.nphi();
        let mut out = Vec::with_capacity(self.npoints());
        for i in 0..g.ntheta() {
            let theta = g.theta(i);
            // Seasonal amplitude grows poleward and over land; sign flips
            // across the equator (cosθ > 0 north).
            let hemi = theta.cos();
            for j in 0..np {
                let p = i * np + j;
                let amp = (10.0 + 8.0 * self.land[p]) * hemi;
                let m = self.climatology[p]
                    + amp * season
                    + 3.0 * self.land[p] * diurnal
                    + self.sensitivity[p] * forcing;
                out.push(m);
            }
        }
        out
    }

    /// Generate one ensemble member of `t_max` steps. The AR(1) states are
    /// drawn in time order and synthesized a chunk of steps at a time, so
    /// the member's coefficient sets never exist whole.
    pub fn generate_member(&self, member: u64, t_max: usize) -> Dataset {
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(member));
        let mut sn = StandardNormal::new();
        let np = self.npoints();
        let mut data = vec![0.0f64; t_max * np];
        // AR(1) state on coefficients, stationary initialization.
        let mut coeffs = HarmonicCoeffs::zeros(cfg.lmax);
        self.draw_innovation(&mut coeffs, 1.0, &mut sn, &mut rng);
        let phi = cfg.ar_phi;
        let innov_scale = (1.0 - phi * phi).sqrt();
        let sigma: Vec<f64> = self
            .land
            .iter()
            .map(|lf| cfg.sigma_ocean * (1.0 + (cfg.land_sigma_factor - 1.0) * lf))
            .collect();
        let chunk = pass_len(SYNTH_BLOCKS_PER_LANE);
        let mut states = Vec::with_capacity(chunk.min(t_max));
        for (t0, rows) in (0..).step_by(chunk).zip(data.chunks_mut(chunk * np)) {
            states.clear();
            for t in t0..t0 + rows.len() / np {
                if t > 0 {
                    // f_t = φ f_{t−1} + √(1−φ²) ξ_t — stationary unit marginal.
                    let mut next = HarmonicCoeffs::zeros(cfg.lmax);
                    self.draw_innovation(&mut next, innov_scale, &mut sn, &mut rng);
                    for (c, n) in coeffs.as_mut_slice().iter_mut().zip(next.as_slice()) {
                        *c = c.scale(phi) + *n;
                    }
                }
                states.push(coeffs.clone());
            }
            let z = synthesis_batch(&self.plan, &states);
            for (t, (row, z)) in (t0..).zip(rows.chunks_exact_mut(np).zip(z.chunks_exact(np))) {
                for (((v, m), s), z) in row.iter_mut().zip(self.mean_field(t)).zip(&sigma).zip(z) {
                    *v = m + s * z;
                }
            }
        }
        Dataset {
            data,
            t_max,
            npoints: np,
            ntheta: cfg.ntheta,
            nphi: cfg.nphi,
            start_year: cfg.start_year,
            tau: cfg.tau,
        }
    }

    /// Draw spectrum-shaped Gaussian coefficients into `coeffs`, scaled by
    /// `scale`.
    fn draw_innovation(
        &self,
        coeffs: &mut HarmonicCoeffs,
        scale: f64,
        sn: &mut StandardNormal,
        rng: &mut StdRng,
    ) {
        use exaclim_mathkit::Complex64;
        let lmax = self.cfg.lmax;
        for l in 0..lmax {
            let std = self.spectrum_std[l] * scale;
            for m in 0..=l {
                let re = sn.sample(rng) * std;
                let im = if m == 0 {
                    0.0
                } else {
                    sn.sample(rng) * std * std::f64::consts::FRAC_1_SQRT_2
                };
                let re = if m == 0 {
                    re
                } else {
                    re * std::f64::consts::FRAC_1_SQRT_2
                };
                coeffs.set(l, m, Complex64::new(re, im));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticEra5 {
        SyntheticEra5::new(SyntheticEra5Config::small_daily(12))
    }

    #[test]
    fn fields_are_plausible_temperatures() {
        let g = small();
        let d = g.generate_member(0, 30);
        for t in 0..30 {
            for &v in d.field(t) {
                assert!((180.0..340.0).contains(&v), "temperature {v} K implausible");
            }
        }
    }

    #[test]
    fn ensemble_members_differ_but_share_climate() {
        let g = small();
        let a = g.generate_member(0, 10);
        let b = g.generate_member(1, 10);
        let mut diff = 0.0f64;
        for (x, y) in a.data.iter().zip(&b.data) {
            diff = diff.max((x - y).abs());
        }
        assert!(diff > 0.1, "members must differ in weather");
        // Global means agree to within weather noise.
        assert!((a.field_mean(0) - b.field_mean(0)).abs() < 2.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = small();
        let a = g.generate_member(3, 5);
        let b = g.generate_member(3, 5);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn seasonal_cycle_has_opposite_phase_across_hemispheres() {
        let g = small();
        let cfg = SyntheticEra5Config::small_daily(12);
        // Compare means half a year apart in each hemisphere.
        let north_ring = 2usize;
        let south_ring = cfg.ntheta - 3;
        let winter = g.mean_field(0);
        let summer = g.mean_field(cfg.tau / 2);
        let np = cfg.nphi;
        let n_jan: f64 = winter[north_ring * np..(north_ring + 1) * np].iter().sum();
        let n_jul: f64 = summer[north_ring * np..(north_ring + 1) * np].iter().sum();
        let s_jan: f64 = winter[south_ring * np..(south_ring + 1) * np].iter().sum();
        let s_jul: f64 = summer[south_ring * np..(south_ring + 1) * np].iter().sum();
        // Step 0 is "January": north warm phase (cos 0 = +1 with positive
        // amplitude × hemi>0) — sign matters less than the opposition:
        assert!(
            (n_jul - n_jan) * (s_jul - s_jan) < 0.0,
            "hemispheres must be out of phase: ΔN={}, ΔS={}",
            n_jul - n_jan,
            s_jul - s_jan
        );
    }

    #[test]
    fn warming_trend_is_present() {
        let g = small();
        // Mean temperature 30 years apart, same phase of year.
        let t0 = g.mean_field(0);
        let t30 = g.mean_field(30 * 365);
        let m0: f64 = t0.iter().sum::<f64>() / t0.len() as f64;
        let m30: f64 = t30.iter().sum::<f64>() / t30.len() as f64;
        assert!(m30 > m0, "forcing ramp must warm the planet: {m0} -> {m30}");
        assert!(m30 - m0 < 3.0, "warming magnitude plausible");
    }

    #[test]
    fn weather_component_is_temporally_correlated() {
        let g = small();
        let d = g.generate_member(0, 200);
        // Deseasonalize crudely by differencing against the mean field.
        let p = d.npoints / 2;
        let series: Vec<f64> = (0..200)
            .map(|t| d.field(t)[p] - g.mean_field(t)[p])
            .collect();
        let r = exaclim_mathkit::stats::acf(&series, 1);
        assert!(r[1] > 0.4, "AR(1) persistence visible: acf1={}", r[1]);
    }

    #[test]
    fn land_points_are_noisier_than_ocean() {
        let g = small();
        let d = g.generate_member(0, 300);
        let cfg = SyntheticEra5Config::small_daily(12);
        let np = cfg.nphi;
        // Find the land-est and ocean-est points on a mid-latitude ring.
        let ring = cfg.ntheta / 3;
        let (mut best_land, mut best_ocean) = (ring * np, ring * np);
        for j in 0..np {
            let p = ring * np + j;
            if g.land[p] > g.land[best_land] {
                best_land = p;
            }
            if g.land[p] < g.land[best_ocean] {
                best_ocean = p;
            }
        }
        let var = |p: usize| {
            let s: Vec<f64> = (0..300)
                .map(|t| d.field(t)[p] - g.mean_field(t)[p])
                .collect();
            exaclim_mathkit::stats::variance(&s)
        };
        let vl = var(best_land);
        let vo = var(best_ocean);
        assert!(vl > vo, "land var {vl} must exceed ocean var {vo}");
    }
}
