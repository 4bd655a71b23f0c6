//! Panel-level timing model of the distributed mixed-precision Cholesky.
//!
//! For each panel `k` of the `nt × nt` tile matrix the model accounts:
//!
//! * POTRF on the diagonal tile (always DP),
//! * the panel TRSMs, parallel over the `√G` process-grid rows only,
//! * the trailing SYRK/GEMM update, parallel over all `G` GPUs, with flops
//!   split by precision from the band policy (closed-form per-distance tile
//!   counts, so a 27M-size matrix simulates in microseconds),
//! * broadcast traffic: every panel tile travels to `~(pg + qg)` nodes;
//!   wire precision follows the conversion placement — the legacy runtime
//!   moved tiles at canonical DP and reshaped at the receiver, the new one
//!   converts at the sender to the tile's storage precision (§V.A),
//! * collective ordering: latency-first keeps per-broadcast latency low;
//!   bandwidth-first overlaps many broadcasts at the price of longer
//!   individual latency, which starves strong-scaled runs (§III.C).
//!
//! Update compute and broadcast bandwidth overlap (task runtime); a
//! configurable residual fraction of the loser leaks into the makespan,
//! modelling imperfect overlap.

use crate::distsim::ConversionSide;
use crate::machines::MachineSpec;
use serde::{Deserialize, Serialize};

/// The paper's four precision variants (§IV.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// Full double precision.
    Dp,
    /// DP diagonal band, SP elsewhere.
    DpSp,
    /// DP band, ~5% SP, rest HP.
    DpSpHp,
    /// DP band, HP elsewhere.
    DpHp,
}

impl Variant {
    /// Legend label as in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Dp => "DP",
            Variant::DpSp => "DP/SP",
            Variant::DpSpHp => "DP/SP/HP",
            Variant::DpHp => "DP/HP",
        }
    }

    /// Precision bucket (0 = HP, 1 = SP, 2 = DP) of a tile at band distance
    /// `d` (in tiles) for a matrix with `nt` tiles per side.
    pub fn bucket(self, d: usize, nt: usize) -> usize {
        match self {
            Variant::Dp => 2,
            Variant::DpSp => {
                if d < 1 {
                    2
                } else {
                    1
                }
            }
            Variant::DpSpHp => {
                let sp_band = (nt / 20).max(1);
                if d < 1 {
                    2
                } else if d < 1 + sp_band {
                    1
                } else {
                    0
                }
            }
            Variant::DpHp => {
                if d < 1 {
                    2
                } else {
                    0
                }
            }
        }
    }

    /// All four variants, figure order.
    pub fn all() -> [Variant; 4] {
        [Variant::Dp, Variant::DpSp, Variant::DpSpHp, Variant::DpHp]
    }
}

/// Collective-communication ordering (§III.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectiveOrder {
    /// Prioritize individual broadcast latency (the realigned strategy).
    LatencyFirst,
    /// Maximize aggregate bandwidth; individual collectives wait longer.
    BandwidthFirst,
}

/// Simulation input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Tile side.
    pub tile: usize,
    /// Nodes used.
    pub nodes: usize,
    /// Precision variant.
    pub variant: Variant,
    /// Conversion placement: [`ConversionSide::Sender`] is the new
    /// runtime (transmit at tile precision), [`ConversionSide::Receiver`]
    /// the legacy one (transmit at canonical precision, reshape at the
    /// receiver).
    pub conversion: ConversionSide,
    /// Collective ordering.
    pub collectives: CollectiveOrder,
}

impl SimConfig {
    /// Paper-default configuration: 2,048-tile panels, new runtime.
    pub fn new(n: usize, nodes: usize, variant: Variant) -> Self {
        Self {
            n,
            tile: 2048,
            nodes,
            variant,
            conversion: ConversionSide::Sender,
            collectives: CollectiveOrder::LatencyFirst,
        }
    }

    /// Legacy-runtime configuration (Figure 5's "Old").
    pub fn legacy(n: usize, nodes: usize, variant: Variant) -> Self {
        Self {
            conversion: ConversionSide::Receiver,
            collectives: CollectiveOrder::BandwidthFirst,
            ..Self::new(n, nodes, variant)
        }
    }
}

/// Simulation output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Makespan, seconds.
    pub seconds: f64,
    /// Achieved rate, PFlop/s (n³/3 over makespan).
    pub pflops: f64,
    /// Total flops by precision bucket `[hp, sp, dp]`.
    pub flops_by_bucket: [f64; 3],
    /// Aggregate update-compute seconds (critical-path share).
    pub comp_seconds: f64,
    /// Aggregate broadcast-bandwidth seconds.
    pub comm_seconds: f64,
    /// Aggregate panel (POTRF + TRSM) seconds.
    pub panel_seconds: f64,
    /// Aggregate collective-latency seconds.
    pub latency_seconds: f64,
    /// Bytes moved on the wire.
    pub wire_bytes: f64,
    /// Whether the matrix fits device memory at this node count.
    pub fits_memory: bool,
}

/// Fraction of the overlapped loser (compute vs comm) that still leaks into
/// the makespan under latency-first collectives — imperfect overlap.
const OVERLAP_RESIDUAL_LATENCY_FIRST: f64 = 0.38;
/// Under bandwidth-first collectives the starvation points (§III.C) leave a
/// much larger un-overlapped residual.
const OVERLAP_RESIDUAL_BW_FIRST: f64 = 0.85;
/// Bandwidth-first collectives: multiplier on per-broadcast latency.
const BW_FIRST_LATENCY_PENALTY: f64 = 8.0;
/// Bandwidth-first collectives: aggregate-bandwidth utilization bonus.
const BW_FIRST_BANDWIDTH_BONUS: f64 = 0.88;
/// Protocol/metadata overhead multiplier on payload bytes.
const WIRE_OVERHEAD: f64 = 1.25;
/// Global network contention: beyond CONTENTION_THRESHOLD nodes the
/// effective per-node bandwidth degrades as the job spans more of the
/// fabric (adaptive-routing conflicts, switch oversubscription):
/// divisor = max(1, (nodes/threshold)^exponent). Calibrated so Frontier's
/// per-GPU rate halves from 1,024 to 9,025 nodes (Table I vs Figure 8).
const CONTENTION_THRESHOLD: f64 = 2048.0;
/// Contention growth exponent.
const CONTENTION_EXPONENT: f64 = 1.5;

/// Σ_{d=lo..hi} (m − d), clamped to `1 ≤ d ≤ m − 1`; the number of trailing
/// tiles at band distances in `[lo, hi]` for trailing size `m`.
fn tiles_at_distances(m: usize, lo: usize, hi: usize) -> f64 {
    if m < 2 {
        return 0.0;
    }
    let lo = lo.max(1);
    let hi = hi.min(m - 1);
    if lo > hi {
        return 0.0;
    }
    let (mf, lof, hif) = (m as f64, lo as f64, hi as f64);
    let count = hif - lof + 1.0;
    count * mf - (lof + hif) * count / 2.0
}

/// Average storage bytes per matrix element under a variant's band policy
/// for an `nt × nt` tile matrix (lower triangle).
pub fn avg_bytes_per_element(variant: Variant, nt: usize) -> f64 {
    let total = (nt * (nt + 1) / 2) as f64;
    let mut weighted = 0.0f64;
    // Diagonal (distance 0) plus distances 1..nt-1 with count nt - d.
    weighted += nt as f64 * 8.0;
    for d in 1..nt {
        let bytes = match variant.bucket(d, nt) {
            0 => 2.0,
            1 => 4.0,
            _ => 8.0,
        };
        weighted += (nt - d) as f64 * bytes;
    }
    weighted / total
}

/// Run the model.
pub fn simulate_cholesky(spec: &MachineSpec, cfg: &SimConfig) -> SimResult {
    assert!(cfg.n >= cfg.tile, "matrix smaller than one tile");
    assert!(cfg.nodes >= 1);
    let b = cfg.tile as f64;
    let nt = cfg.n / cfg.tile;
    let g = (cfg.nodes * spec.gpus_per_node) as f64;
    let pg = g.sqrt();
    let qg = g.sqrt();
    let depth = (g.log2() / 2.0).max(1.0); // broadcast tree depth per dim
    let lat = spec.latency_us
        * 1e-6
        * match cfg.collectives {
            CollectiveOrder::LatencyFirst => 1.0,
            CollectiveOrder::BandwidthFirst => BW_FIRST_LATENCY_PENALTY,
        };
    let contention = (cfg.nodes as f64 / CONTENTION_THRESHOLD)
        .powf(CONTENTION_EXPONENT)
        .max(1.0);
    let bw = spec.node_bw_gbs
        * 1e9
        * match cfg.collectives {
            CollectiveOrder::LatencyFirst => 0.80,
            CollectiveOrder::BandwidthFirst => BW_FIRST_BANDWIDTH_BONUS,
        }
        / contention;
    let rate = |bucket: usize| spec.rate_tf(bucket) * 1e12;
    let dp_rate = rate(2);
    let bucket_bytes = [2.0f64, 4.0, 8.0];

    // Band-policy bucket boundaries as distance intervals [lo, hi].
    let intervals: Vec<(usize, usize, usize)> = match cfg.variant {
        Variant::Dp => vec![(2, 1, nt)],
        Variant::DpSp => vec![(1, 1, nt)],
        Variant::DpSpHp => {
            let sp = (nt / 20).max(1);
            vec![(1, 1, sp), (0, sp + 1, nt)]
        }
        Variant::DpHp => vec![(0, 1, nt)],
    };

    let mut flops_by_bucket = [0.0f64; 3];
    let mut comp = 0.0f64;
    let mut comm = 0.0f64;
    let mut panel = 0.0f64;
    let mut latency = 0.0f64;
    let mut wire_bytes_total = 0.0f64;
    let mut makespan = 0.0f64;

    for k in 0..nt {
        let m = nt - 1 - k; // trailing tiles per dimension
                            // POTRF (DP always).
        let t_potrf = (b * b * b / 3.0) / dp_rate;
        flops_by_bucket[2] += b * b * b / 3.0;
        // Panel TRSMs: m tiles spread over pg grid rows.
        let mut t_trsm = 0.0;
        for &(bkt, lo, hi) in &intervals {
            let tiles = (hi.min(m)).saturating_sub(lo.saturating_sub(1)) as f64;
            if tiles <= 0.0 || lo > m {
                continue;
            }
            let fl = tiles * b * b * b;
            flops_by_bucket[bkt] += fl;
            t_trsm += fl / pg / rate(bkt);
        }
        // Trailing update: SYRK on the m diagonal tiles (DP band) + GEMMs.
        let syrk_fl = m as f64 * b * b * b;
        flops_by_bucket[2] += syrk_fl;
        let mut t_update = syrk_fl / g / dp_rate;
        for &(bkt, lo, hi) in &intervals {
            let tiles = tiles_at_distances(m, lo, hi);
            let fl = tiles * 2.0 * b * b * b;
            flops_by_bucket[bkt] += fl;
            t_update += fl / g / rate(bkt);
        }
        // Broadcast traffic: every panel tile reaches ~(pg + qg) nodes.
        let mut panel_bytes = 0.0;
        for &(bkt, lo, hi) in &intervals {
            let tiles = (hi.min(m)).saturating_sub(lo.saturating_sub(1)) as f64;
            if tiles <= 0.0 || lo > m {
                continue;
            }
            let wire = match cfg.conversion {
                ConversionSide::Sender => bucket_bytes[bkt],
                // Legacy runtime: no half-precision wire datatype — HP
                // tiles travel widened to SP; conversion happens at each
                // receiver.
                ConversionSide::Receiver => bucket_bytes[bkt].max(4.0),
            };
            panel_bytes += tiles * b * b * wire;
        }
        // POTRF tile down the panel (DP wire unless all consumers narrower).
        panel_bytes += b * b * 8.0;
        let per_node_bytes = panel_bytes * (pg + qg) / cfg.nodes as f64 * WIRE_OVERHEAD;
        let t_comm = per_node_bytes / bw;
        let t_lat = 2.0 * depth * lat;
        wire_bytes_total += panel_bytes * (pg + qg);

        comp += t_update;
        comm += t_comm;
        panel += t_potrf + t_trsm;
        latency += t_lat;
        let residual = match cfg.collectives {
            CollectiveOrder::LatencyFirst => OVERLAP_RESIDUAL_LATENCY_FIRST,
            CollectiveOrder::BandwidthFirst => OVERLAP_RESIDUAL_BW_FIRST,
        };
        let overlapped = t_update.max(t_comm) + residual * t_update.min(t_comm);
        makespan += t_potrf + t_trsm + t_lat + overlapped;
    }

    let total_flops = (cfg.n as f64).powi(3) / 3.0;
    SimResult {
        seconds: makespan,
        pflops: total_flops / makespan / 1e15,
        flops_by_bucket,
        comp_seconds: comp,
        comm_seconds: comm,
        panel_seconds: panel,
        latency_seconds: latency,
        wire_bytes: wire_bytes_total,
        fits_memory: cfg.n <= spec.max_matrix_n(cfg.nodes, avg_bytes_per_element(cfg.variant, nt)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{Machine, MachineSpec};

    fn summit() -> MachineSpec {
        MachineSpec::of(Machine::Summit)
    }

    #[test]
    fn tiles_at_distances_closed_form() {
        // m = 5: distances 1..4 with counts 4,3,2,1.
        assert_eq!(tiles_at_distances(5, 1, 4), 10.0);
        assert_eq!(tiles_at_distances(5, 1, 1), 4.0);
        assert_eq!(tiles_at_distances(5, 2, 3), 5.0);
        assert_eq!(tiles_at_distances(5, 4, 100), 1.0);
        assert_eq!(tiles_at_distances(1, 1, 4), 0.0);
    }

    #[test]
    fn dp_runs_at_plausible_fraction_of_peak() {
        // Paper §V.A: DP Cholesky reaches 61.7% of the 2,048-node Summit
        // peak at 8.39M. The model should land in a band around that.
        let spec = summit();
        let cfg = SimConfig::new(8_390_000, 2_048, Variant::Dp);
        let r = simulate_cholesky(&spec, &cfg);
        let frac = r.pflops / spec.dp_peak_pf(2_048);
        assert!(frac > 0.45 && frac < 0.75, "DP fraction of peak {frac}");
    }

    #[test]
    fn variant_speedups_are_ordered_like_figure_6() {
        let spec = summit();
        let base = simulate_cholesky(&spec, &SimConfig::new(8_390_000, 2_048, Variant::Dp));
        let sp = simulate_cholesky(&spec, &SimConfig::new(8_390_000, 2_048, Variant::DpSp));
        let sphp = simulate_cholesky(&spec, &SimConfig::new(8_390_000, 2_048, Variant::DpSpHp));
        let hp = simulate_cholesky(&spec, &SimConfig::new(8_390_000, 2_048, Variant::DpHp));
        let s_sp = sp.pflops / base.pflops;
        let s_sphp = sphp.pflops / base.pflops;
        let s_hp = hp.pflops / base.pflops;
        assert!(
            s_sp > 1.3 && s_sp < 3.0,
            "DP/SP speedup {s_sp} (paper: 2.0)"
        );
        assert!(
            s_sphp > s_sp,
            "DP/SP/HP ({s_sphp}) must beat DP/SP ({s_sp})"
        );
        assert!(
            s_hp > s_sphp,
            "DP/HP ({s_hp}) must beat DP/SP/HP ({s_sphp})"
        );
        assert!(
            s_hp > 3.5 && s_hp < 7.5,
            "DP/HP speedup {s_hp} (paper: 5.2)"
        );
    }

    #[test]
    fn sender_conversion_beats_receiver_most_for_dp_hp() {
        // Figure 5: new-vs-old speedup 1.53× for DP/HP, ~1.1× for DP.
        let spec = summit();
        let n = 1_060_000;
        let nodes = 128;
        let speedup = |v: Variant| {
            let new = simulate_cholesky(&spec, &SimConfig::new(n, nodes, v));
            let old = simulate_cholesky(&spec, &SimConfig::legacy(n, nodes, v));
            new.pflops / old.pflops
        };
        let s_dp = speedup(Variant::Dp);
        let s_dpsp = speedup(Variant::DpSp);
        let s_dphp = speedup(Variant::DpHp);
        assert!(s_dphp > s_dp, "DP/HP gains most: {s_dphp} vs {s_dp}");
        assert!(s_dphp > s_dpsp, "DP/HP gains more than DP/SP");
        assert!(
            s_dphp > 1.2 && s_dphp < 3.0,
            "DP/HP new/old {s_dphp} (paper: 1.53)"
        );
        assert!(
            (1.0..1.6).contains(&s_dp),
            "DP new/old {s_dp} (paper: 1.15)"
        );
    }

    #[test]
    fn performance_grows_with_matrix_size() {
        // Figure 6's rising curves: bigger matrices amortize communication.
        let spec = summit();
        let mut prev = 0.0;
        for &n in &[2_100_000usize, 4_190_000, 6_290_000, 8_390_000] {
            let r = simulate_cholesky(&spec, &SimConfig::new(n, 2_048, Variant::DpHp));
            assert!(r.pflops > prev, "n={n}: {} must rise", r.pflops);
            prev = r.pflops;
        }
    }

    #[test]
    fn memory_fit_flag() {
        // Paper Table I: 6.29M DP/HP maxes out 1,024 Summit nodes. The same
        // matrix in full DP must NOT fit (DP needs ~3.2× the bytes).
        let spec = summit();
        let hp = simulate_cholesky(&spec, &SimConfig::new(6_290_000, 1_024, Variant::DpHp));
        assert!(
            hp.fits_memory,
            "paper ran 6.29M DP/HP on 1,024 Summit nodes"
        );
        let dp = simulate_cholesky(&spec, &SimConfig::new(6_290_000, 1_024, Variant::Dp));
        assert!(
            !dp.fits_memory,
            "full DP at 6.29M exceeds 1,024-node memory"
        );
        let too_big = simulate_cholesky(&spec, &SimConfig::new(40_000_000, 64, Variant::DpHp));
        assert!(!too_big.fits_memory);
    }

    #[test]
    fn avg_bytes_tracks_variant() {
        let nt = 1000;
        let dp = avg_bytes_per_element(Variant::Dp, nt);
        let dpsp = avg_bytes_per_element(Variant::DpSp, nt);
        let dphp = avg_bytes_per_element(Variant::DpHp, nt);
        assert_eq!(dp, 8.0);
        assert!(dpsp > 4.0 && dpsp < 4.1, "{dpsp}");
        assert!(dphp > 2.0 && dphp < 2.1, "{dphp}");
    }

    #[test]
    fn flops_accounting_matches_n_cubed_over_three() {
        let spec = summit();
        let cfg = SimConfig::new(4_194_304, 512, Variant::DpSpHp);
        let r = simulate_cholesky(&spec, &cfg);
        let total: f64 = r.flops_by_bucket.iter().sum();
        let expect = (cfg.n as f64).powi(3) / 3.0;
        assert!(
            (total - expect).abs() / expect < 0.05,
            "{total:.3e} vs {expect:.3e}"
        );
        // Mixed variant uses all three precisions.
        assert!(r.flops_by_bucket.iter().all(|&f| f > 0.0));
    }

    #[test]
    fn latency_first_wins_at_strong_scale() {
        // §III.C: bandwidth-first starves strong-scaled runs.
        let spec = summit();
        let n = 2_100_000; // small matrix on many nodes → latency-bound
        let mut lat_first = SimConfig::new(n, 2_048, Variant::Dp);
        lat_first.collectives = CollectiveOrder::LatencyFirst;
        let mut bw_first = lat_first.clone();
        bw_first.collectives = CollectiveOrder::BandwidthFirst;
        let a = simulate_cholesky(&spec, &lat_first);
        let b = simulate_cholesky(&spec, &bw_first);
        assert!(a.pflops > b.pflops, "{} vs {}", a.pflops, b.pflops);
    }
}
