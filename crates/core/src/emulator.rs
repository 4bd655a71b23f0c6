//! Training and emulation: the end-to-end pipeline of Figure 3.

use crate::config::EmulatorConfig;
use exaclim_climate::generator::Dataset;
use exaclim_fft::LANES;
use exaclim_linalg::cholesky::CholeskyStats;
use exaclim_linalg::dense::Matrix;
use exaclim_linalg::precision::PrecisionPolicy;
use exaclim_linalg::tiled::TiledMatrix;
use exaclim_mathkit::rng::{ScannedNormals, StandardNormal};
use exaclim_runtime::{parallel_tile_cholesky, pool, SchedulerKind, TaskFailure, TraceReport};
use exaclim_sht::{analysis_batch, synthesis_batch, HarmonicCoeffs, ShtPlan};
use exaclim_stats::covariance::{empirical_covariance, JitterLadder, MAX_RUNGS};
use exaclim_stats::emulate::CoefficientSampler;
use exaclim_stats::forcing::ForcingSeries;
use exaclim_stats::trend::{fit_grid, standardize, MeanBasis, TrendConfig, TrendFit, TrendModel};
use exaclim_stats::var::{fit_diagonal_var_multi, DiagonalVar};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Mutex;

/// Errors surfaced by training or emulation.
#[derive(Debug, Clone)]
pub enum EmulationError {
    /// Invalid configuration.
    Config(String),
    /// The training data does not match the configuration.
    Data(String),
    /// The covariance factorization failed.
    Factorization(String),
}

impl std::fmt::Display for EmulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmulationError::Config(m) => write!(f, "configuration error: {m}"),
            EmulationError::Data(m) => write!(f, "data error: {m}"),
            EmulationError::Factorization(m) => write!(f, "factorization error: {m}"),
        }
    }
}

impl std::error::Error for EmulationError {}

/// Entry point for training.
pub struct ClimateEmulator;

/// Data-vs-config compatibility checks of training.
fn check_geometry(data: &Dataset, config: &EmulatorConfig) -> Result<(), EmulationError> {
    if data.ntheta <= config.lmax {
        return Err(EmulationError::Data(format!(
            "grid has {} rings; Wigner SHT needs Nθ > L = {}",
            data.ntheta, config.lmax
        )));
    }
    if data.nphi < 2 * config.lmax - 1 {
        return Err(EmulationError::Data(format!(
            "grid has {} longitudes; need ≥ 2L−1 = {}",
            data.nphi,
            2 * config.lmax - 1
        )));
    }
    if data.tau != config.tau {
        return Err(EmulationError::Data(format!(
            "data has τ = {} steps per period, the configuration τ = {}",
            data.tau, config.tau
        )));
    }
    if data.t_max <= config.var_order + 2 {
        return Err(EmulationError::Data("too few time steps".into()));
    }
    Ok(())
}

/// Reject training data holding ±∞ or NaN, naming where: one bad value
/// would otherwise reach the trend fit's normal equations and panic there.
fn check_finite(data: &Dataset, member: usize) -> Result<(), EmulationError> {
    match data.data.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(at) => Err(EmulationError::Data(format!(
            "member {member} holds {} at time step {}, location {}",
            data.data[at],
            at / data.npoints,
            at % data.npoints
        ))),
    }
}

/// Time rows of an emulation assembled per pool pass: their ε is scanned
/// during the previous pass, then transformed and assembled. 32 rows of
/// the benchmark's 594 points hold 223 KiB of accepted pairs.
const EMULATE_ROWS: usize = 32;

/// Slice blocks (`exaclim_fft::LANES` slices each) every pool lane gets
/// per chunk of the truncation residual's synthesis.
const RECON_BLOCKS_PER_LANE: usize = 8;

/// `v2[p] += (z_t[p] − synthesis(c_t)[p])²` over every slice `t` in
/// ascending order, synthesizing the slices in chunks so the
/// reconstruction never exists whole. A chunk gives every pool lane
/// [`RECON_BLOCKS_PER_LANE`] blocks, so a wider pool takes fewer, larger
/// chunks; `v2` is the same for any chunk size.
fn add_truncation_residuals(
    plan: &ShtPlan,
    coeff_sets: &[HarmonicCoeffs],
    residuals: &[f64],
    v2: &mut [f64],
) {
    let chunk = RECON_BLOCKS_PER_LANE * LANES * pool::global().threads();
    let npoints = v2.len();
    for (coeffs, z) in coeff_sets
        .chunks(chunk)
        .zip(residuals.chunks(chunk * npoints))
    {
        let recon = synthesis_batch(plan, coeffs);
        for (z_t, r_t) in z.chunks_exact(npoints).zip(recon.chunks_exact(npoints)) {
            for ((v, z), r) in v2.iter_mut().zip(z_t).zip(r_t) {
                let d = z - r;
                *v += d * d;
            }
        }
    }
}

/// The factored innovation covariance of [`factor_covariance`].
#[derive(Debug)]
pub struct CovarianceFactor {
    /// Lower Cholesky factor of `Û + jitter·I`, in tiles at the policy's
    /// precisions.
    pub tiles: TiledMatrix,
    /// Diagonal jitter added to `Û`: 0, or the rungs of a [`JitterLadder`].
    pub jitter: f64,
    /// Kernel counts and flops of the factorization that succeeded.
    pub stats: CholeskyStats,
    /// The executor's trace of that factorization.
    pub trace: TraceReport,
}

/// Stage 4 of training: factor the innovation covariance `u`, repairing it
/// to positive definite on the way. The tiled factorization is its own
/// probe: tile `u` at `policy`, factor the tiles on at most `workers`
/// lanes, and on a non-positive pivot add the next rung of a
/// [`JitterLadder`] to `u`'s diagonal, rebuild the tiles and retry. The
/// ladder is sized to the lowest precision among the tiles built, so an
/// all-DP tiling climbs the rungs of the dense f64 probe `ensure_spd`.
///
/// A pivot still non-positive after the last rung, or a panicking kernel
/// (returned at once, without a retry), is an
/// [`EmulationError::Factorization`].
pub fn factor_covariance(
    mut u: Matrix,
    tile: usize,
    policy: &PrecisionPolicy,
    workers: usize,
) -> Result<CovarianceFactor, EmulationError> {
    let n = u.rows();
    let mut tiles = TiledMatrix::from_dense(u.as_slice(), n, tile, policy);
    let mut ladder = JitterLadder::new(&u, tiles.lowest_precision().unit_roundoff());
    loop {
        match parallel_tile_cholesky(&mut tiles, workers, SchedulerKind::PriorityHeap) {
            Ok((stats, trace)) => {
                return Ok(CovarianceFactor {
                    tiles,
                    jitter: ladder.jitter(),
                    stats,
                    trace,
                })
            }
            Err(e) if e.cause == TaskFailure::Returned => {
                if !ladder.climb(&mut u) {
                    return Err(EmulationError::Factorization(format!(
                        "not positive definite after {MAX_RUNGS} rungs of diagonal jitter \
                         (jitter {:e}): {e}",
                        ladder.jitter()
                    )));
                }
            }
            Err(e) => return Err(EmulationError::Factorization(e.to_string())),
        }
        tiles = TiledMatrix::from_dense(u.as_slice(), n, tile, policy);
    }
}

/// A trained emulator: everything needed to generate emulations, and
/// everything that gets *stored* instead of the raw simulation archive.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedEmulator {
    /// Hyper-parameters used at training time.
    pub config: EmulatorConfig,
    /// Grid rows of the training data.
    pub ntheta: usize,
    /// Grid columns.
    pub nphi: usize,
    /// Calendar year of step 0.
    pub start_year: i64,
    /// Per-location trend models (β, ρ, harmonics, σ) — eq. (2).
    pub trend: Vec<TrendModel>,
    /// Diagonal VAR(P) on coefficient channels.
    pub var: DiagonalVar,
    /// Dense lower Cholesky factor `V` of the innovation covariance `Û`.
    pub factor: Vec<f64>,
    /// Per-location truncation-residual variance `v²` (the `ε` nugget).
    pub v2: Vec<f64>,
    /// Radiative forcing used by the trend (stored for emulation).
    pub forcing: ForcingSeries,
    /// Diagonal jitter added to make `Û` positive definite (paper §III.A.3):
    /// 0 when the tiled factorization succeeds on `Û` itself, else the sum
    /// of the [`JitterLadder`] rungs it needed. The first rung is
    /// `max(1e-10, u_low)` times the mean diagonal of `Û`, where `u_low` is
    /// the unit roundoff of the lowest tile precision, and each next rung
    /// is ten times the last, up to 40 rungs.
    pub jitter: f64,
}

impl ClimateEmulator {
    /// Fit the emulator on an ensemble of simulations (`R ≥ 1` members
    /// sharing geometry and period). `m_t`, `σ`, and `Φ_p` are shared
    /// across members; the innovation covariance averages over all
    /// `R(T−P)` innovation vectors — exactly eq. (9).
    pub fn train_ensemble(
        members: &[&Dataset],
        config: EmulatorConfig,
    ) -> Result<TrainedEmulator, EmulationError> {
        config.check().map_err(EmulationError::Config)?;
        let first = *members
            .first()
            .ok_or_else(|| EmulationError::Data("need at least one member".into()))?;
        for m in members {
            if (m.ntheta, m.nphi, m.t_max, m.tau, m.start_year)
                != (
                    first.ntheta,
                    first.nphi,
                    first.t_max,
                    first.tau,
                    first.start_year,
                )
            {
                return Err(EmulationError::Data(
                    "ensemble members must share geometry and period".into(),
                ));
            }
        }
        check_geometry(first, &config)?;
        for (r, m) in members.iter().enumerate() {
            check_finite(m, r)?;
        }
        let npoints = first.npoints;
        let t_max = first.t_max;
        let r_members = members.len();
        let denom = (r_members * t_max) as f64;

        // Stage 1: trend. With an identical design matrix across members,
        // stacked OLS equals OLS on the ensemble-mean series; σ is then
        // re-estimated from the pooled residuals of all members. One member
        // is its own mean (borrowed, not copied), and the fit's own σ and
        // standardized residuals are the pooled ones: its means go at once.
        let mean_data: Cow<'_, [f64]> = if r_members == 1 {
            Cow::Borrowed(&first.data)
        } else {
            let mut acc = vec![0.0f64; t_max * npoints];
            for m in members {
                for (a, v) in acc.iter_mut().zip(&m.data) {
                    *a += v;
                }
            }
            let inv = 1.0 / r_members as f64;
            acc.iter_mut().for_each(|a| *a *= inv);
            Cow::Owned(acc)
        };
        let years = (t_max / first.tau + 2) as i64;
        let forcing =
            ForcingSeries::historical_like(first.start_year, first.start_year + years, 30);
        let trend_cfg = TrendConfig {
            k_harmonics: config.k_harmonics,
            tau: first.tau,
            rho_grid: config.rho_grid.clone(),
            start_year: first.start_year,
        };
        let TrendFit {
            mut models,
            mut means,
            residuals,
        } = fit_grid(&mean_data, t_max, npoints, &trend_cfg, &forcing);
        drop(mean_data);
        let mut fitted_residuals = if r_members == 1 {
            means = Vec::new();
            Some(residuals)
        } else {
            drop(residuals);
            let mut sig2 = vec![0.0f64; npoints];
            for m in members {
                for t in 0..t_max {
                    let row = &m.data[t * npoints..(t + 1) * npoints];
                    for (p, (v, s)) in row.iter().zip(sig2.iter_mut()).enumerate() {
                        let d = v - means[p * t_max + t];
                        *s += d * d;
                    }
                }
            }
            for (model, s) in models.iter_mut().zip(&sig2) {
                model.sigma = (s / denom).sqrt().max(1e-12);
            }
            None
        };

        // Stage 2: SHT of each member's standardized residuals, and the
        // truncation residual variance v² per location.
        let plan = ShtPlan::equiangular(config.lmax, first.ntheta, first.nphi);
        let mut all_series: Vec<Vec<Vec<f64>>> = Vec::with_capacity(r_members);
        let mut v2 = vec![0.0f64; npoints];
        for m in members {
            let residuals = fitted_residuals
                .take()
                .unwrap_or_else(|| standardize(&m.data, &means, &models, t_max));
            let coeff_sets = analysis_batch(&plan, &residuals, t_max);
            all_series
                .push(pool::global().map(coeff_sets.len(), |t| coeff_sets[t].to_real_vector()));
            add_truncation_residuals(&plan, &coeff_sets, &residuals, &mut v2);
        }
        drop(means);
        for v in v2.iter_mut() {
            *v /= denom;
        }

        // Stage 3: shared VAR(P) over all members.
        let var = {
            let refs: Vec<&[Vec<f64>]> = all_series.iter().map(|s| s.as_slice()).collect();
            fit_diagonal_var_multi(&refs, config.var_order)
        };

        // Stage 4: eq. (9) — pool every member's innovations, then the
        // mixed-precision Cholesky of their covariance, jittered until it
        // factors. Only they and the models reach it: the series and each
        // member's residual buffers are gone.
        let xi: Vec<Vec<f64>> = all_series.iter().flat_map(|s| var.innovations(s)).collect();
        drop(all_series);
        let u = empirical_covariance(&xi);
        drop(xi);
        let CovarianceFactor { tiles, jitter, .. } =
            factor_covariance(u, config.tile, &config.precision, config.workers)?;
        let factor = tiles.to_dense_lower();

        Ok(TrainedEmulator {
            config,
            ntheta: first.ntheta,
            nphi: first.nphi,
            start_year: first.start_year,
            trend: models,
            var,
            factor,
            v2,
            forcing,
            jitter,
        })
    }

    /// Fit the full emulator on one training dataset: the one-member
    /// ensemble fit, [`ClimateEmulator::train_ensemble`] of `[data]`.
    pub fn train(
        data: &Dataset,
        config: EmulatorConfig,
    ) -> Result<TrainedEmulator, EmulationError> {
        Self::train_ensemble(&[data], config)
    }
}

impl TrainedEmulator {
    /// Grid points per field.
    pub fn npoints(&self) -> usize {
        self.ntheta * self.nphi
    }

    /// Generate one emulation of `t_max` steps (paper §III.B).
    pub fn emulate(&self, t_max: usize, seed: u64) -> Result<Dataset, EmulationError> {
        if t_max == 0 {
            return Err(EmulationError::Data("t_max must be positive".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = self.synthesize_noise(t_max, &mut rng);
        self.assemble(&mut data, t_max, &mut rng);
        Ok(Dataset {
            data,
            t_max,
            npoints: self.npoints(),
            ntheta: self.ntheta,
            nphi: self.nphi,
            start_year: self.start_year,
            tau: self.config.tau,
        })
    }

    /// The standardized field `Z̃` of `t_max` steps, time-major: a
    /// coefficient path (ξ = Vη through the VAR recursion) and the inverse
    /// SHT of every slice, synthesized straight into the buffer `emulate`
    /// returns. Each intermediate is freed as soon as the next one exists.
    fn synthesize_noise(&self, t_max: usize, rng: &mut StdRng) -> Vec<f64> {
        let cfg = &self.config;
        let dim = cfg.coeff_dim();
        let plan = ShtPlan::equiangular(cfg.lmax, self.ntheta, self.nphi);
        let sampler = CoefficientSampler::new(self.var.clone(), self.factor.clone(), dim);
        let path = sampler.sample_path(t_max, rng);
        let coeff_sets = pool::global().map(path.len(), |t| {
            HarmonicCoeffs::from_real_vector(cfg.lmax, &path[t])
        });
        drop(path);
        synthesis_batch(&plan, &coeff_sets)
    }

    /// Overwrite `Z̃` in `data` with `y = m + σ(Z̃ + ε·√v²)`, ε drawn
    /// time-major from `rng`, [`EMULATE_ROWS`] time rows at a time. The
    /// acceptance scans run block after block in stream order (a block's
    /// odd spare variate leads the next); while the pool lanes assemble
    /// block `b`, the first lane to start scans block `b + 1`, then joins
    /// the others. A lane claims a row, transforms its pairs, evaluates its
    /// means from the packed trend and assembles it: every element is the
    /// per-element loop's arithmetic, whichever lane computes it.
    fn assemble(&self, data: &mut [f64], t_max: usize, rng: &mut StdRng) {
        let npoints = self.npoints();
        let cfg = &self.config;
        let trend_cfg = TrendConfig {
            k_harmonics: cfg.k_harmonics,
            tau: cfg.tau,
            rho_grid: cfg.rho_grid.clone(),
            start_year: self.start_year,
        };
        let basis = MeanBasis::new(
            &trend_cfg,
            &self.forcing,
            t_max,
            self.trend.iter().map(|m| m.rho),
        );
        let means = basis.rows(&self.trend);
        let sigma: Vec<f64> = self.trend.iter().map(|m| m.sigma).collect();
        let nugget_sd: Vec<f64> = self.v2.iter().map(|v| v.sqrt()).collect();
        let pool = pool::global();
        let mut sn = StandardNormal::new();
        let (mut eps, mut eps_next) = (ScannedNormals::default(), ScannedNormals::default());
        let mut blocks = data
            .chunks_mut(EMULATE_ROWS * npoints)
            .enumerate()
            .peekable();
        if let Some((_, first)) = blocks.peek() {
            sn.scan(rng, first.len(), &mut eps);
        }
        while let Some((b, block)) = blocks.next() {
            let next_len = blocks.peek().map_or(0, |(_, next)| next.len());
            let scan = Mutex::new(Some((&mut sn, &mut *rng, &mut eps_next)));
            let rows = Mutex::new(block.chunks_mut(npoints).enumerate());
            let cur = &eps;
            pool.parallel_for(pool.threads(), |_| {
                let job = scan.lock().expect("no lane panics while scanning").take();
                if let Some((sn, rng, next)) = job {
                    sn.scan(rng, next_len, next);
                }
                let (mut m, mut e) = (vec![0.0; npoints], vec![0.0; npoints]);
                loop {
                    let Some((r, row)) = rows.lock().expect("no lane panics while claiming").next()
                    else {
                        break;
                    };
                    means.row_into(b * EMULATE_ROWS + r, &mut m);
                    cur.transform_into(r * npoints, &mut e);
                    for ((((y, &m), &e), &sd), &s) in
                        row.iter_mut().zip(&m).zip(&e).zip(&nugget_sd).zip(&sigma)
                    {
                        *y = m + s * (*y + e * sd);
                    }
                }
            });
            std::mem::swap(&mut eps, &mut eps_next);
        }
    }

    /// Bytes this trained model occupies when serialized as raw f64
    /// parameters (the "emulator side" of the storage-savings ledger).
    pub fn parameter_bytes(&self) -> usize {
        let trend = self.npoints() * (6 + 2 * self.config.k_harmonics);
        let var = self.var.dim() * self.config.var_order;
        let factor = self.factor.len();
        let v2 = self.v2.len();
        (trend + var + factor + v2) * 8
    }

    /// Storage model comparing an `ensemble_size × t_max` archive at this
    /// grid against this emulator.
    pub fn storage_model(&self, ensemble_size: u64, t_max: u64) -> exaclim_climate::StorageModel {
        exaclim_climate::StorageModel {
            ensemble_size,
            t_max,
            npoints: self.npoints() as u64,
            lmax: self.config.lmax as u64,
            k_harmonics: self.config.k_harmonics as u64,
            var_order: self.config.var_order as u64,
        }
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trained emulator serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, EmulationError> {
        serde_json::from_str(s).map_err(|e| EmulationError::Data(e.to_string()))
    }

    /// Member name of the emulator snapshot inside an ECA1 archive.
    pub const SNAPSHOT_MEMBER: &'static str = "trained_emulator";
    /// Schema version written by [`TrainedEmulator::save`]. Bump on any
    /// incompatible change to the serialized model.
    pub const SNAPSHOT_VERSION: u32 = 1;

    /// Package this model as an ECA1 snapshot (member
    /// [`TrainedEmulator::SNAPSHOT_MEMBER`], schema
    /// [`TrainedEmulator::SNAPSHOT_VERSION`]).
    ///
    /// The returned [`exaclim_store::Snapshot`] can be written to its own
    /// archive via [`exaclim_store::write_snapshot_file`] (what
    /// [`TrainedEmulator::save`] does) or embedded next to field members in
    /// a larger archive via [`exaclim_store::ArchiveWriter::add_snapshot`],
    /// which is how a serving catalog ships an emulator alongside the data
    /// it was trained on.
    pub fn to_snapshot(&self) -> exaclim_store::Snapshot {
        exaclim_store::Snapshot::new(
            Self::SNAPSHOT_MEMBER,
            Self::SNAPSHOT_VERSION,
            self.to_json().into_bytes(),
        )
    }

    /// Reconstruct a model from a snapshot produced by
    /// [`TrainedEmulator::to_snapshot`], wherever it was stored. Rejects
    /// unknown schema versions before touching the payload.
    pub fn from_snapshot(snapshot: &exaclim_store::Snapshot) -> Result<Self, EmulationError> {
        if snapshot.version != Self::SNAPSHOT_VERSION {
            return Err(EmulationError::Data(format!(
                "snapshot schema version {} is not supported (expected {})",
                snapshot.version,
                Self::SNAPSHOT_VERSION
            )));
        }
        let json = std::str::from_utf8(&snapshot.payload)
            .map_err(|_| EmulationError::Data("snapshot payload is not UTF-8".to_string()))?;
        Self::from_json(json)
    }

    /// Persist to an ECA1 snapshot archive at `path` (compressed,
    /// checksummed). Returns the container size in bytes.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<u64, EmulationError> {
        exaclim_store::write_snapshot_file(path, &self.to_snapshot())
            .map_err(|e| EmulationError::Data(e.to_string()))
    }

    /// Reload an emulator persisted with [`TrainedEmulator::save`]. The
    /// reloaded model emulates bit-identically for the same seed.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, EmulationError> {
        let snapshot = exaclim_store::read_snapshot_file(path, Self::SNAPSHOT_MEMBER)
            .map_err(|e| EmulationError::Data(e.to_string()))?;
        Self::from_snapshot(&snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
    use rand::RngCore;

    fn train_small() -> (TrainedEmulator, Dataset) {
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
        let training = gen.generate_member(0, 3 * 365);
        let em = ClimateEmulator::train(&training, EmulatorConfig::small(8)).unwrap();
        (em, training)
    }

    /// The assembly as it ran before the blocks: a location-major mean
    /// table, then one `sample` per element in time-major order. The
    /// oracle of [`TrainedEmulator::assemble`].
    fn assemble_reference(em: &TrainedEmulator, data: &mut [f64], t_max: usize, rng: &mut StdRng) {
        let (cfg, npoints) = (&em.config, em.npoints());
        let trend_cfg = TrendConfig {
            k_harmonics: cfg.k_harmonics,
            tau: cfg.tau,
            rho_grid: cfg.rho_grid.clone(),
            start_year: em.start_year,
        };
        let basis = MeanBasis::new(
            &trend_cfg,
            &em.forcing,
            t_max,
            em.trend.iter().map(|m| m.rho),
        );
        let mut means = vec![0.0f64; npoints * t_max];
        for (mean, model) in means.chunks_mut(t_max).zip(&em.trend) {
            basis.mean_into(model, mean);
        }
        let mut sn = StandardNormal::new();
        let nugget_sd: Vec<f64> = em.v2.iter().map(|v| v.sqrt()).collect();
        for (t, row) in data.chunks_exact_mut(npoints).enumerate() {
            for (p, y) in row.iter_mut().enumerate() {
                let eps = sn.sample(rng) * nugget_sd[p];
                *y = means[p * t_max + t] + em.trend[p].sigma * (*y + eps);
            }
        }
    }

    #[test]
    fn blocked_assembly_is_the_per_element_loop_bit_for_bit() {
        // 9 × 15 = 135 points: with an odd row length every other row of a
        // block starts on the second variate of a pair, and the lane that
        // takes it shares that pair with the previous row's lane.
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(7));
        let training = gen.generate_member(0, 2 * 365);
        let em = ClimateEmulator::train(&training, EmulatorConfig::small(7)).unwrap();
        assert_eq!(em.npoints(), 135);
        // One row, one short block, a block and a row past it, and a
        // ragged last block after several full ones.
        for t_max in [1, 3, EMULATE_ROWS + 1, 3 * EMULATE_ROWS + 13] {
            let seed = 0x5eed + t_max as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let z = em.synthesize_noise(t_max, &mut rng);
            let (mut blocked, mut rng_blocked) = (z.clone(), rng.clone());
            em.assemble(&mut blocked, t_max, &mut rng_blocked);
            let (mut reference, mut rng_reference) = (z, rng);
            assemble_reference(&em, &mut reference, t_max, &mut rng_reference);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&blocked), bits(&reference), "t_max = {t_max}");
            assert_eq!(
                rng_blocked.next_u64(),
                rng_reference.next_u64(),
                "t_max = {t_max}: RNG state after the draws"
            );
            let emulated = em.emulate(t_max, seed).unwrap();
            assert_eq!(
                bits(&emulated.data),
                bits(&reference),
                "emulate, t_max = {t_max}"
            );
        }
    }

    #[test]
    fn train_and_emulate_shapes() {
        let (em, training) = train_small();
        assert_eq!(em.npoints(), training.npoints);
        assert_eq!(em.trend.len(), training.npoints);
        assert_eq!(em.var.dim(), 64);
        assert_eq!(em.factor.len(), 64 * 64);
        let out = em.emulate(200, 7).unwrap();
        assert_eq!(out.t_max, 200);
        assert_eq!(out.npoints, training.npoints);
        assert!(out.data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn emulation_temperatures_are_plausible() {
        let (em, _) = train_small();
        let out = em.emulate(365, 3).unwrap();
        for &v in &out.data {
            assert!((170.0..350.0).contains(&v), "temperature {v} K");
        }
    }

    #[test]
    fn emulations_differ_across_seeds_but_not_within() {
        let (em, _) = train_small();
        let a = em.emulate(50, 1).unwrap();
        let b = em.emulate(50, 2).unwrap();
        let c = em.emulate(50, 1).unwrap();
        assert_eq!(a.data, c.data, "same seed, same emulation");
        assert!(a.data.iter().zip(&b.data).any(|(x, y)| x != y));
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let (em, _) = train_small();
        let path = std::env::temp_dir().join("exaclim_core_snapshot_test.eca1");
        let bytes = em.save(&path).unwrap();
        assert!(bytes > 0);
        let back = TrainedEmulator::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let a = em.emulate(40, 17).unwrap();
        let b = back.emulate(40, 17).unwrap();
        assert_eq!(
            a.data, b.data,
            "reloaded emulator must emulate bit-identically"
        );
    }

    #[test]
    fn snapshot_embeds_in_mixed_archive() {
        // An emulator snapshot stored *next to* field members — the layout
        // a serving catalog reads — reloads bit-identically.
        use exaclim_store::{Archive, ArchiveWriter, ByteCodec, Codec, FieldMeta};
        use std::io::Cursor;
        let (em, training) = train_small();
        let snap = em.to_snapshot();
        let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        let meta = FieldMeta {
            ntheta: training.ntheta,
            nphi: training.nphi,
            start_year: training.start_year,
            tau: training.tau,
        };
        w.add_field(
            "t2m/member0",
            Codec::F32,
            meta,
            training.npoints,
            32,
            &training.data,
        )
        .unwrap();
        w.add_snapshot(
            &snap.name,
            snap.version,
            ByteCodec::Rle,
            &snap.payload,
            1 << 16,
        )
        .unwrap();
        let (cursor, _) = w.finish().unwrap();
        let r = Archive::from_reader(cursor).unwrap();
        let (version, payload) = r.read_snapshot(TrainedEmulator::SNAPSHOT_MEMBER).unwrap();
        let back = TrainedEmulator::from_snapshot(&exaclim_store::Snapshot::new(
            TrainedEmulator::SNAPSHOT_MEMBER,
            version,
            payload,
        ))
        .unwrap();
        assert_eq!(
            em.emulate(30, 5).unwrap().data,
            back.emulate(30, 5).unwrap().data
        );
        // Version gate holds for embedded snapshots too.
        let wrong = exaclim_store::Snapshot::new("x", 999, b"{}".to_vec());
        assert!(TrainedEmulator::from_snapshot(&wrong).is_err());
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let (em, _) = train_small();
        let json = em.to_json();
        let back = TrainedEmulator::from_json(&json).unwrap();
        let a = em.emulate(30, 9).unwrap();
        let b = back.emulate(30, 9).unwrap();
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn emulator_is_smaller_than_training_data() {
        let (em, training) = train_small();
        let training_bytes = training.data.len() * 4; // archive at f32
        assert!(
            em.parameter_bytes() < training_bytes,
            "{} vs {}",
            em.parameter_bytes(),
            training_bytes
        );
        let model = em.storage_model(10, training.t_max as u64);
        assert!(model.savings_ratio() > 1.0);
    }

    #[test]
    fn rejects_bad_configs_and_grids() {
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
        let training = gen.generate_member(0, 400);
        // Band-limit too high for the grid.
        let err = ClimateEmulator::train(&training, EmulatorConfig::small(14)).unwrap_err();
        assert!(matches!(err, EmulationError::Data(_)), "{err}");
        // Invalid tile.
        let mut cfg = EmulatorConfig::small(8);
        cfg.tile = 7;
        let err = ClimateEmulator::train(&training, cfg).unwrap_err();
        assert!(matches!(err, EmulationError::Config(_)));
        // Data labelled monthly against the daily configuration, and a
        // τ = 0 label as an untrusted container header can carry.
        for tau in [12, 0] {
            let mut data = training.clone();
            data.tau = tau;
            let err = ClimateEmulator::train(&data, EmulatorConfig::small(8)).unwrap_err();
            let EmulationError::Data(msg) = &err else {
                panic!("τ = {tau}: {err}");
            };
            assert!(
                msg.contains(&format!("τ = {tau} ")) && msg.contains("τ = 365"),
                "{msg}"
            );
        }
        // A configuration with τ = 0 is rejected before the data is read.
        let mut cfg = EmulatorConfig::small(8);
        cfg.tau = 0;
        let err = ClimateEmulator::train(&training, cfg).unwrap_err();
        assert!(matches!(err, EmulationError::Config(_)), "{err}");
    }

    /// The bits of every field training computes, named.
    fn field_bits(em: &TrainedEmulator) -> Vec<(&'static str, Vec<u64>)> {
        let bits = |v: &mut dyn Iterator<Item = f64>| v.map(f64::to_bits).collect::<Vec<_>>();
        let forcing = &em.forcing;
        vec![
            (
                "trend",
                bits(&mut em.trend.iter().flat_map(|m| {
                    [m.beta0, m.beta1, m.beta2, m.rho, m.sigma]
                        .into_iter()
                        .chain(m.harmonics.iter().flat_map(|&(a, b)| [a, b]))
                })),
            ),
            ("var", bits(&mut em.var.phi.iter().flatten().copied())),
            ("factor", bits(&mut em.factor.iter().copied())),
            ("v2", bits(&mut em.v2.iter().copied())),
            (
                "forcing",
                bits(&mut (forcing.first_year()..=forcing.last_year()).map(|y| forcing.at(y))),
            ),
            ("jitter", vec![em.jitter.to_bits()]),
            (
                "geometry",
                vec![em.ntheta as u64, em.nphi as u64, em.start_year as u64],
            ),
        ]
    }

    #[test]
    fn ensemble_training_pools_members() {
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
        let members: Vec<_> = (0..3).map(|r| gen.generate_member(r, 2 * 365)).collect();
        let refs: Vec<&exaclim_climate::Dataset> = members.iter().collect();
        let em = ClimateEmulator::train_ensemble(&refs, EmulatorConfig::small(8)).unwrap();
        let out = em.emulate(365, 3).unwrap();
        let report = crate::validate::validate_consistency(&members[0], &out);
        assert!(report.passes(), "{report:?}");
        // `train` is the R = 1 ensemble fit, field for field and bit for bit.
        let single = ClimateEmulator::train(&members[0], EmulatorConfig::small(8)).unwrap();
        let ens1 = ClimateEmulator::train_ensemble(&refs[..1], EmulatorConfig::small(8)).unwrap();
        assert_eq!(field_bits(&single), field_bits(&ens1));
    }

    #[test]
    fn non_finite_training_values_are_typed_errors_naming_where() {
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(8));
        let clean = gen.generate_member(0, 400);
        let (t, p) = (123, 17);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data = clean.clone();
            data.data[t * data.npoints + p] = bad;
            let err = ClimateEmulator::train(&data, EmulatorConfig::small(8)).unwrap_err();
            let EmulationError::Data(msg) = &err else {
                panic!("{bad}: {err}");
            };
            assert!(
                msg.contains("member 0")
                    && msg.contains("time step 123")
                    && msg.contains("location 17"),
                "{bad}: {msg}"
            );

            let other = gen.generate_member(1, 400);
            let err =
                ClimateEmulator::train_ensemble(&[&clean, &other, &data], EmulatorConfig::small(8))
                    .unwrap_err();
            let EmulationError::Data(msg) = &err else {
                panic!("{bad}: {err}");
            };
            assert!(
                msg.contains("member 2")
                    && msg.contains("time step 123")
                    && msg.contains("location 17"),
                "{bad}: {msg}"
            );
        }
    }

    #[test]
    fn ensemble_rejects_mismatched_members() {
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
        let a = gen.generate_member(0, 400);
        let b = gen.generate_member(1, 500); // different length
        let err = ClimateEmulator::train_ensemble(&[&a, &b], EmulatorConfig::small(8)).unwrap_err();
        assert!(matches!(err, EmulationError::Data(_)));
    }

    #[test]
    fn mixed_precision_training_also_works() {
        let gen = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
        let training = gen.generate_member(0, 2 * 365);
        let mut cfg = EmulatorConfig::small(8);
        cfg.precision = exaclim_linalg::precision::PrecisionPolicy::dp_hp();
        cfg.tile = 16;
        let em = ClimateEmulator::train(&training, cfg).unwrap();
        let out = em.emulate(100, 5).unwrap();
        assert!(out.data.iter().all(|v| v.is_finite()));
    }
}
