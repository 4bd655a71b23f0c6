//! `cholesky_mixed` — the paper's headline kernel on its own.
//!
//! One op is a *sweep*: tile conversion plus task-parallel tile Cholesky
//! for each of the four precision variants (DP, DP/SP, DP/SP/HP, DP/HP) of
//! one exponential covariance matrix. The sweep, not the single
//! factorization, is the op, so the latency distribution has one mode.
//! Nearly all of an op is tile kernels and the DAG executor; none of it is
//! SHT or serving.

use crate::env::THREADS;
use crate::gen::hash_f64s;
use crate::harness::{BaseCounts, LayerValues, Quality, Workload};
use crate::spec::VARIANTS;
use crate::stats::median;
use crate::trace::{self_ns, Tracer};
use exaclim_linalg::cholesky::{factorization_residual, tile_cholesky, CholeskyStats};
use exaclim_linalg::precision::{Precision, PrecisionPolicy};
use exaclim_linalg::tiled::{exp_covariance, TiledMatrix};
use exaclim_runtime::{
    cholesky_graph, parallel_tile_cholesky, SchedulerKind, TaskGraph, TraceReport,
};

/// Matrix dimension.
pub const N: usize = 1280;
/// Tile side (`N / TILE` = 10 tiles per dimension, 220 tasks).
pub const TILE: usize = 128;
/// Correlation length `N / 16`: the smallest entry is `exp(−16)`, far from
/// the subnormal band a short length would put in the corner (where DP —
/// but not SP/HP, whose conversion flushes it — runs on microcode assists
/// and the workload turns bimodal).
pub const RHO: f64 = (N / 16) as f64;
const NUGGET: f64 = 1e-3;

/// Span and metric names of one precision variant.
struct Names {
    convert_span: &'static str,
    chol_span: &'static str,
    convert_ms: &'static str,
    chol_ms: &'static str,
    gflops: &'static str,
    residual: &'static str,
    payload_bytes: &'static str,
}

macro_rules! names {
    ($v:literal) => {
        Names {
            convert_span: concat!("linalg.convert_", $v),
            chol_span: concat!("linalg.chol_", $v),
            convert_ms: concat!("linalg.convert_", $v, "_ms"),
            chol_ms: concat!("linalg.chol_", $v, "_ms"),
            gflops: concat!("linalg.chol_", $v, "_gflops"),
            residual: concat!("linalg.chol_", $v, "_residual"),
            payload_bytes: concat!("linalg.chol_", $v, "_payload_bytes"),
        }
    };
}

/// In the order of [`VARIANTS`].
const NAMES: [Names; 4] = [
    names!("dp"),
    names!("dp_sp"),
    names!("dp_sp_hp"),
    names!("dp_hp"),
];

/// The benchmark matrix.
pub fn input_matrix() -> Vec<f64> {
    exp_covariance(N, RHO, NUGGET)
}

fn policies() -> [(PrecisionPolicy, Precision); 4] {
    [
        (PrecisionPolicy::dp(), Precision::Double),
        (PrecisionPolicy::dp_sp(), Precision::Single),
        (PrecisionPolicy::dp_sp_hp(N / TILE), Precision::Half),
        (PrecisionPolicy::dp_hp(), Precision::Half),
    ]
}

/// Hash of a factored matrix, tile by tile. The DAG chains each tile's
/// updates in panel order, so a factor is bit-identical from run to run
/// and one hash comparison verifies a whole factorization.
fn factor_hash(m: &TiledMatrix) -> u64 {
    let mut per_tile = Vec::with_capacity(m.nt() * (m.nt() + 1) / 2);
    for i in 0..m.nt() {
        for j in 0..=i {
            per_tile.push(f64::from_bits(hash_f64s(&m.tile(i, j).to_f64())));
        }
    }
    hash_f64s(&per_tile)
}

struct Variant {
    policy: PrecisionPolicy,
    /// Lowest precision the policy stores a tile in; scales the residual
    /// the oracle accepts.
    lowest: Precision,
    /// Flops of one factorization, computed from the tile counts.
    flops: f64,
    /// Hash of the factor computed (and residual-checked) in set-up.
    oracle: u64,
    residual: f64,
    payload_bytes: usize,
}

/// One factorization of a sweep.
pub struct Factored {
    matrix: TiledMatrix,
    stats: CholeskyStats,
    report: TraceReport,
}

/// State of the workload between ops.
pub struct CholeskyMixed {
    a: Vec<f64>,
    variants: Vec<Variant>,
    graph: TaskGraph,
    /// Per-factorization executor statistics (traced runs).
    utilization: Vec<f64>,
    imbalance: Vec<f64>,
    critical_share: Vec<f64>,
    tasks: Vec<f64>,
    violations: Vec<String>,
}

impl CholeskyMixed {
    fn sweep(&self, tr: &mut Tracer) -> Result<Vec<Factored>, String> {
        let mut out = Vec::with_capacity(4);
        for (v, variant) in self.variants.iter().enumerate() {
            let mut matrix = tr.time(NAMES[v].convert_span, || {
                TiledMatrix::from_dense(&self.a, N, TILE, &variant.policy)
            });
            let (stats, report) = tr
                .time(NAMES[v].chol_span, || {
                    parallel_tile_cholesky(&mut matrix, THREADS, SchedulerKind::PriorityHeap)
                })
                .map_err(|e| format!("{}: {e}", VARIANTS[v]))?;
            out.push(Factored {
                matrix,
                stats,
                report,
            });
        }
        Ok(out)
    }
}

impl Workload for CholeskyMixed {
    type Output = Vec<Factored>;

    // ≈ 0.37 s per sweep on the reference box.
    const BASE: BaseCounts = BaseCounts {
        timed: 42,
        warmup: 1,
    };

    fn setup(_seed: u64, warmup: usize, tr: &mut Tracer) -> Result<Self, String> {
        // The matrix is the same at every seed on purpose: its residuals
        // are this workload's `rel_error`, which must repeat exactly.
        let a = input_matrix();
        let smallest = a.iter().fold(f64::INFINITY, |m, v| m.min(v.abs()));
        if smallest <= f64::MIN_POSITIVE {
            return Err(format!("covariance has a subnormal entry ({smallest:e})"));
        }
        let mut w = Self {
            a,
            variants: policies()
                .into_iter()
                .map(|(policy, lowest)| Variant {
                    policy,
                    lowest,
                    flops: 0.0,
                    oracle: 0,
                    residual: 0.0,
                    payload_bytes: 0,
                })
                .collect(),
            graph: cholesky_graph(N / TILE),
            utilization: Vec::new(),
            imbalance: Vec::new(),
            critical_share: Vec::new(),
            tasks: Vec::new(),
            violations: Vec::new(),
        };
        // Oracle: factor each variant once and measure its backward error.
        // `factorization_residual` is a naive O(n³) loop (≈ 0.9 s at this
        // size — far too slow per op), so it runs here, two at a time.
        let factored = w.sweep(&mut Tracer::new(false))?;
        let residuals: Vec<f64> = std::thread::scope(|s| {
            let halves: Vec<_> = factored
                .chunks(2)
                .map(|pair| {
                    let a = &w.a;
                    s.spawn(move || {
                        pair.iter()
                            .map(|f| factorization_residual(a, &f.matrix))
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            halves
                .into_iter()
                .flat_map(|h| h.join().expect("residual thread"))
                .collect()
        });
        for (v, (f, residual)) in factored.iter().zip(residuals).enumerate() {
            let variant = &mut w.variants[v];
            if residual.is_nan() || residual > 8.0 * variant.lowest.unit_roundoff() {
                return Err(format!(
                    "{} residual {residual:e} exceeds 8 × unit roundoff of {}",
                    VARIANTS[v],
                    variant.lowest.label()
                ));
            }
            variant.oracle = factor_hash(&f.matrix);
            variant.residual = residual;
            variant.payload_bytes = f.matrix.payload_bytes();
            variant.flops = f.stats.total_flops();
        }
        for _ in 0..warmup {
            w.sweep(tr)?;
        }
        Ok(w)
    }

    fn op(&mut self, _i: usize, tr: &mut Tracer) -> Result<Self::Output, String> {
        self.sweep(tr)
    }

    fn verify(&mut self, _i: usize, out: Self::Output, traced: bool) -> bool {
        let mut ok = true;
        for (f, variant) in out.iter().zip(&self.variants) {
            ok &= factor_hash(&f.matrix) == variant.oracle;
            if traced {
                self.utilization.push(f.report.utilization());
                self.imbalance.push(f.report.imbalance());
                self.critical_share
                    .push(f.report.critical_path_seconds(&self.graph) / f.report.wall);
                self.tasks.push(f.report.spans.len() as f64);
            }
        }
        ok
    }

    fn replay(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        // The single-thread baseline, once per 8 sweeps.
        if i.is_multiple_of(8) {
            let mut m = TiledMatrix::from_dense(&self.a, N, TILE, &self.variants[0].policy);
            tr.time("linalg.chol_seq_dp", || tile_cholesky(&mut m))
                .map_err(|e| e.to_string())?;
            if factor_hash(&m) != self.variants[0].oracle {
                self.violations
                    .push("sequential and parallel DP factors differ".to_string());
            }
        }
        Ok(())
    }

    fn finish(
        self,
        _timed: usize,
        tr: &Tracer,
        layer: &mut LayerValues,
    ) -> Result<Quality, String> {
        let violations = self.violations;
        let mut warnings = Vec::new();
        for (v, variant) in self.variants.iter().enumerate() {
            layer.insert(NAMES[v].residual, variant.residual);
            layer.insert(NAMES[v].payload_bytes, variant.payload_bytes as f64);
        }
        if tr.enabled() {
            for (names, variant) in NAMES.iter().zip(&self.variants) {
                let ms = tr.p50_ms(names.chol_span);
                layer.insert(names.chol_ms, ms);
                layer.insert(names.gflops, variant.flops / (ms / 1e3) / 1e9);
                layer.insert(names.convert_ms, tr.p50_ms(names.convert_span));
            }
            let seq_ms = tr.p50_ms("linalg.chol_seq_dp");
            layer.insert("linalg.chol_seq_dp_ms", seq_ms);
            layer.insert(
                "runtime.parallel_speedup",
                seq_ms / tr.p50_ms(NAMES[0].chol_span),
            );
            layer.insert("runtime.exec_utilization", median(&self.utilization));
            layer.insert("runtime.exec_imbalance", median(&self.imbalance));
            layer.insert("runtime.critical_path_share", median(&self.critical_share));
            layer.insert("runtime.tasks_per_factorization", median(&self.tasks));

            // Share of a sweep not inside any of its eight spans.
            let spans = tr.spans();
            let selfs = self_ns(spans);
            let (mut own, mut total) = (0u64, 0u64);
            for (s, self_ns) in spans.iter().zip(&selfs) {
                if s.name == "op" && s.op != crate::trace::SETUP_OP {
                    own += self_ns;
                    total += s.dur_ns();
                }
            }
            if total > 0 && own as f64 > 0.05 * total as f64 {
                warnings.push(format!(
                    "variant spans cover only {:.1} % of a sweep",
                    100.0 * (1.0 - own as f64 / total as f64)
                ));
            }
        }
        let stored: usize = self.variants.iter().map(|v| v.payload_bytes).sum();
        Ok(Quality {
            stored_bytes_per_user_byte: stored as f64 / (4 * N * N * 8) as f64,
            rel_error: self.variants.iter().map(|v| v.residual).fold(0.0, f64::max),
            violations,
            warnings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covariance_input_has_no_subnormal_entry() {
        let a = input_matrix();
        let smallest = a.iter().fold(f64::INFINITY, |m, v| m.min(v.abs()));
        assert!(smallest > f64::MIN_POSITIVE, "{smallest:e}");
        // The corner entry is exp(−(N−1)/RHO) ≈ exp(−16).
        assert!((smallest - (-((N - 1) as f64) / RHO).exp()).abs() < 1e-12);
        // What the issue's probing found: a short correlation length puts
        // exp(−d/ρ) into the subnormal band.
        let bad = exp_covariance(1024, 0.9, 0.0);
        assert!(bad.iter().any(|v| *v != 0.0 && v.abs() < f64::MIN_POSITIVE));
    }
}
