//! `emulator_design` — the paper's pipeline end to end.
//!
//! One op trains the emulator on one synthetic member, emulates as many
//! steps as it was trained on, and runs the statistical consistency check
//! on the pair. The member is two years of daily fields at band-limit 16
//! (18 × 33 grid): trend fit, SHT and covariance dominate `train`, the
//! 256-dimensional Cholesky is a few percent — so SHT and statistics work
//! shows here and Cholesky work does not (`cholesky_mixed` is the reverse).

use crate::env::THREADS;
use crate::harness::{BaseCounts, LayerValues, Quality, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use exaclim::{
    validate_consistency, ClimateEmulator, ConsistencyReport, EmulatorConfig, TrainedEmulator,
};
use exaclim_climate::{Dataset, SyntheticEra5, SyntheticEra5Config};
use exaclim_linalg::tiled::TiledMatrix;
use exaclim_runtime::{parallel_tile_cholesky, SchedulerKind};
use exaclim_sht::{analysis_batch, synthesis_batch, HarmonicCoeffs, ShtPlan};
use exaclim_stats::covariance::{empirical_covariance, ensure_spd};
use exaclim_stats::trend::{fit_grid, TrendConfig};
use exaclim_stats::var::fit_diagonal_var;
use exaclim_stats::{CoefficientSampler, ForcingSeries};
use exaclim_store::{ArchiveWriter, ByteCodec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Band-limit of both the generator and the emulator.
pub const LMAX: usize = 16;
/// Training (and emulation) length: two years of daily steps.
pub const T_MAX: usize = 730;

/// The seven stages of `train`, replayed one by one in a traced run.
/// `(span, metric)` pairs.
const TRAIN_STAGES: [(&str, &str); 7] = [
    ("stats.trend_fit", "stats.trend_fit_ms"),
    ("sht.analysis", "sht.analysis_ms"),
    ("sht.synthesis", "sht.synthesis_ms"),
    ("stats.var_fit", "stats.var_fit_ms"),
    ("stats.covariance", "stats.covariance_ms"),
    ("linalg.tile_convert", "linalg.tile_convert_ms"),
    ("runtime.cholesky", "runtime.cholesky_ms"),
];

/// State of the workload between ops.
pub struct EmulatorDesign {
    training: Dataset,
    config: EmulatorConfig,
    /// `mean_nrmse` of every verified timed op.
    nrmse: Vec<f64>,
    /// Model and emulation seed of the latest op, for the replay and the
    /// snapshot size.
    last: Option<(TrainedEmulator, u64)>,
    replay_drift: Option<String>,
}

impl EmulatorDesign {
    /// Emulation seed of op `i` — a function of `i` alone, see `setup`.
    fn emulation_seed(i: usize) -> u64 {
        crate::gen::SplitMix64::new(0xE301, i as u64).next_u64()
    }

    fn run_op(
        &self,
        i: usize,
        tr: &mut Tracer,
    ) -> Result<(TrainedEmulator, ConsistencyReport, u64), String> {
        let seed = Self::emulation_seed(i);
        let open = tr.enter("core.train");
        let model = ClimateEmulator::train(&self.training, self.config.clone());
        tr.exit(open);
        let model = model.map_err(|e| e.to_string())?;
        let open = tr.enter("core.emulate");
        let emulation = model.emulate(T_MAX, seed);
        tr.exit(open);
        let emulation = emulation.map_err(|e| e.to_string())?;
        let report = tr.time("core.validate", || {
            validate_consistency(&self.training, &emulation)
        });
        Ok((model, report, seed))
    }
}

/// Size of the ECA1 container `TrainedEmulator::save` would write, built
/// in memory.
fn snapshot_container_bytes(snapshot: &exaclim_store::Snapshot) -> Result<u64, String> {
    let mut w = ArchiveWriter::new(std::io::Cursor::new(Vec::new())).map_err(|e| e.to_string())?;
    w.add_snapshot(
        &snapshot.name,
        snapshot.version,
        ByteCodec::Rle,
        &snapshot.payload,
        exaclim_store::snapshot::SNAPSHOT_CHUNK_BYTES,
    )
    .map_err(|e| e.to_string())?;
    let (_, total) = w.finish().map_err(|e| e.to_string())?;
    Ok(total)
}

impl Workload for EmulatorDesign {
    type Output = (TrainedEmulator, ConsistencyReport, u64);

    // ≈ 0.57 s per op on the reference box.
    const BASE: BaseCounts = BaseCounts {
        timed: 30,
        warmup: 5,
    };

    fn setup(_seed: u64, warmup: usize, tr: &mut Tracer) -> Result<Self, String> {
        // Nothing here depends on `--seed`. `rel_error` is a distance
        // between two sample means with few degrees of freedom: across
        // training members it moves ±6 %, across emulation seeds ±20 % per
        // op — either would drown the precision changes it is there to
        // catch. With the member and the per-op seeds fixed it repeats
        // exactly. (Time does not depend on the values at all.)
        let gen_cfg = SyntheticEra5Config::small_daily(LMAX);
        let training = SyntheticEra5::new(gen_cfg).generate_member(0, T_MAX);
        let mut config = EmulatorConfig::small(LMAX);
        config.workers = THREADS;
        let w = Self {
            training,
            config,
            nrmse: Vec::new(),
            last: None,
            replay_drift: None,
        };
        for k in 0..warmup {
            // Warm-up ops use seeds the timed phase never does.
            let (_, report, _) = w.run_op(usize::MAX - k, tr)?;
            if !report.passes() {
                return Err(format!("warm-up emulation is inconsistent: {report:?}"));
            }
        }
        Ok(w)
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<Self::Output, String> {
        self.run_op(i, tr)
    }

    fn verify(&mut self, _i: usize, out: Self::Output, _traced: bool) -> bool {
        let (model, report, seed) = out;
        let ok = report.passes() && report.mean_nrmse.is_finite();
        if ok {
            self.nrmse.push(report.mean_nrmse);
        }
        self.last = Some((model, seed));
        ok
    }

    fn replay(&mut self, _i: usize, tr: &mut Tracer) -> Result<(), String> {
        let (model, seed) = self.last.as_ref().ok_or("replay before any op")?;
        let data = &self.training;
        let cfg = &self.config;
        // The stages of `ClimateEmulator::train`, in its order, on its input.
        let years = (data.t_max / data.tau + 2) as i64;
        let forcing = ForcingSeries::historical_like(data.start_year, data.start_year + years, 30);
        let trend_cfg = TrendConfig {
            k_harmonics: cfg.k_harmonics,
            tau: data.tau,
            rho_grid: cfg.rho_grid.clone(),
            start_year: data.start_year,
        };
        let fit = tr.time("stats.trend_fit", || {
            fit_grid(&data.data, data.t_max, data.npoints, &trend_cfg, &forcing)
        });
        let plan = ShtPlan::equiangular(cfg.lmax, data.ntheta, data.nphi);
        let coeffs = tr.time("sht.analysis", || {
            analysis_batch(&plan, &fit.residuals, data.t_max)
        });
        let series: Vec<Vec<f64>> = coeffs.iter().map(HarmonicCoeffs::to_real_vector).collect();
        tr.time("sht.synthesis", || synthesis_batch(&plan, &coeffs));
        let (var, xi) = tr.time("stats.var_fit", || {
            let var = fit_diagonal_var(&series, cfg.var_order);
            let xi = var.innovations(&series);
            (var, xi)
        });
        let u = tr.time("stats.covariance", || {
            let mut u = empirical_covariance(&xi);
            ensure_spd(&mut u);
            u
        });
        let dim = cfg.coeff_dim();
        let mut tiled = tr.time("linalg.tile_convert", || {
            TiledMatrix::from_dense(u.as_slice(), dim, cfg.tile, &cfg.precision)
        });
        tr.time("runtime.cholesky", || {
            parallel_tile_cholesky(&mut tiled, cfg.workers, SchedulerKind::PriorityHeap)
        })
        .map_err(|e| e.to_string())?;
        let factor = tr.time("linalg.tile_convert", || tiled.to_dense_lower());
        if factor != model.factor && self.replay_drift.is_none() {
            self.replay_drift =
                Some("replayed train stages produced a different factor than train".to_string());
        }
        // The sampling half of `emulate` (its synthesis is one more batch
        // of the size timed above).
        let sampler = CoefficientSampler::new(var, factor, dim);
        let mut rng = StdRng::seed_from_u64(*seed);
        tr.time("stats.sample_path", || sampler.sample_path(T_MAX, &mut rng));
        tr.time("core.snapshot_encode", || model.to_snapshot());
        Ok(())
    }

    fn finish(
        self,
        _timed: usize,
        tr: &Tracer,
        layer: &mut LayerValues,
    ) -> Result<Quality, String> {
        let (model, _) = self.last.as_ref().ok_or("no op ran")?;
        let snapshot_bytes = snapshot_container_bytes(&model.to_snapshot())?;
        let user_bytes = (self.training.data.len() * 8) as f64;
        let violations: Vec<String> = self.replay_drift.iter().cloned().collect();
        let mut warnings = Vec::new();

        if tr.enabled() {
            let train = tr.per_op_ms("core.train");
            let mut unattributed = train.clone();
            for (span, metric) in TRAIN_STAGES {
                layer.insert(metric, tr.p50_ms(span));
                for (u, s) in unattributed.iter_mut().zip(tr.per_op_ms(span)) {
                    *u -= s;
                }
            }
            let train_ms = median(&train);
            let unattributed_ms = median(&unattributed);
            let emulate_ms = tr.p50_ms("core.emulate");
            layer.insert("core.train_ms", train_ms);
            layer.insert("core.train_unattributed_ms", unattributed_ms);
            layer.insert("stats.sample_path_ms", tr.p50_ms("stats.sample_path"));
            layer.insert("core.emulate_ms", emulate_ms);
            layer.insert(
                "core.emulate_steps_per_s",
                T_MAX as f64 / (emulate_ms / 1e3),
            );
            layer.insert("core.validate_ms", tr.p50_ms("core.validate"));
            layer.insert("core.snapshot_encode_ms", tr.p50_ms("core.snapshot_encode"));
            if unattributed_ms.abs() >= 0.10 * train_ms {
                warnings.push(format!(
                    "train stages replayed outside train no longer add up to it: \
                     {unattributed_ms:.1} ms of {train_ms:.1} ms unattributed"
                ));
            }
        }
        layer.insert("core.snapshot_bytes", snapshot_bytes as f64);

        if self.nrmse.is_empty() {
            return Err("no emulation passed the consistency check".to_string());
        }
        Ok(Quality {
            stored_bytes_per_user_byte: snapshot_bytes as f64 / user_bytes,
            // The mean over all timed ops rather than the last op's value:
            // it does not jump when the op count is rescaled.
            rel_error: self.nrmse.iter().sum::<f64>() / self.nrmse.len() as f64,
            violations,
            warnings,
        })
    }
}
