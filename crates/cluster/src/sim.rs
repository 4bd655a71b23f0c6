//! Panel-level timing model of the distributed mixed-precision Cholesky.
//!
//! For each panel `k` of the `nt × nt` tile matrix the model accounts:
//!
//! * POTRF on the diagonal tile (DP in every variant),
//! * the panel TRSMs, parallel over the `√G` process-grid rows only,
//! * the trailing SYRK/GEMM update, parallel over all `G` GPUs, with flops
//!   split by precision from the variant's [`PrecisionPolicy`] (closed-form
//!   tile counts over the runs of band distances the policy gives one
//!   precision, so a 27M-size matrix simulates in microseconds),
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
use exaclim_linalg::precision::{Precision, PrecisionPolicy, Variant};

/// Collective-communication ordering (§III.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOrder {
    /// Prioritize individual broadcast latency (the realigned strategy).
    LatencyFirst,
    /// Maximize aggregate bandwidth; individual collectives wait longer.
    BandwidthFirst,
}

/// Simulation input.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Makespan, seconds.
    pub seconds: f64,
    /// Achieved rate, PFlop/s (n³/3 over makespan).
    pub pflops: f64,
    /// Total flops by precision `[hp, sp, dp]`, indexed by `Precision as
    /// usize`.
    pub flops_by_precision: [f64; 3],
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

/// Maximal runs `(precision, lo, hi)` of the band distances `1..nt` to
/// which `policy` gives one precision, nearest the diagonal first.
fn distance_runs(policy: &PrecisionPolicy, nt: usize) -> Vec<(Precision, usize, usize)> {
    let mut runs: Vec<(Precision, usize, usize)> = Vec::new();
    for d in 1..nt {
        let p = policy.assign(d, 0, 1.0);
        match runs.last_mut() {
            Some((q, _, hi)) if *q == p => *hi = d,
            _ => runs.push((p, d, d)),
        }
    }
    runs
}

/// Average storage bytes per matrix element under a variant's band policy
/// for an `nt × nt` tile matrix (lower triangle).
pub fn avg_bytes_per_element(variant: Variant, nt: usize) -> f64 {
    let policy = variant.policy(nt);
    let total = (nt * (nt + 1) / 2) as f64;
    // Distances 0..nt-1 with count nt - d.
    let weighted: f64 = (0..nt)
        .map(|d| (nt - d) as f64 * policy.assign(d, 0, 1.0).bytes() as f64)
        .sum();
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
    let rate = |p: Precision| spec.rate_tf(p) * 1e12;
    let policy = cfg.variant.policy(nt);
    // Precision of the diagonal tiles: POTRF, SYRK and the POTRF broadcast.
    let diag = policy.assign(0, 0, 1.0);
    let diag_rate = rate(diag);
    let runs = distance_runs(&policy, nt);

    let mut flops_by_precision = [0.0f64; 3];
    let mut comp = 0.0f64;
    let mut comm = 0.0f64;
    let mut panel = 0.0f64;
    let mut latency = 0.0f64;
    let mut wire_bytes_total = 0.0f64;
    let mut makespan = 0.0f64;

    for k in 0..nt {
        let m = nt - 1 - k; // trailing tiles per dimension
        let t_potrf = (b * b * b / 3.0) / diag_rate;
        flops_by_precision[diag as usize] += b * b * b / 3.0;
        // Panel TRSMs: m tiles spread over pg grid rows. Broadcast traffic:
        // every panel tile reaches ~(pg + qg) nodes.
        let mut t_trsm = 0.0;
        let mut panel_bytes = 0.0;
        for &(p, lo, hi) in &runs {
            let tiles = (hi.min(m) + 1).saturating_sub(lo) as f64;
            if tiles == 0.0 {
                continue;
            }
            let fl = tiles * b * b * b;
            flops_by_precision[p as usize] += fl;
            t_trsm += fl / pg / rate(p);
            let wire = match cfg.conversion {
                ConversionSide::Sender => p,
                // Legacy runtime: no half-precision wire datatype — HP
                // tiles travel widened to SP; conversion happens at each
                // receiver.
                ConversionSide::Receiver => p.max(Precision::Single),
            };
            panel_bytes += tiles * b * b * wire.bytes() as f64;
        }
        // POTRF tile down the panel, at its own precision.
        panel_bytes += b * b * diag.bytes() as f64;
        // Trailing update: SYRK on the m diagonal tiles + GEMMs.
        let syrk_fl = m as f64 * b * b * b;
        flops_by_precision[diag as usize] += syrk_fl;
        let mut t_update = syrk_fl / g / diag_rate;
        for &(p, lo, hi) in &runs {
            let tiles = tiles_at_distances(m, lo, hi);
            let fl = tiles * 2.0 * b * b * b;
            flops_by_precision[p as usize] += fl;
            t_update += fl / g / rate(p);
        }
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
        flops_by_precision,
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
        for v in Variant::all() {
            let cfg = SimConfig::new(4_194_304, 512, v);
            let r = simulate_cholesky(&spec, &cfg);
            let total: f64 = r.flops_by_precision.iter().sum();
            let expect = (cfg.n as f64).powi(3) / 3.0;
            assert!(
                (total - expect).abs() / expect < 0.05,
                "{}: {total:.3e} vs {expect:.3e}",
                v.label()
            );
            // Flops land in exactly the precisions the policy gives a tile
            // (the mixed variant uses all three).
            let nt = cfg.n / cfg.tile;
            let policy = v.policy(nt);
            for p in [Precision::Half, Precision::Single, Precision::Double] {
                let used = (0..nt).any(|d| policy.assign(d, 0, 1.0) == p);
                assert_eq!(
                    r.flops_by_precision[p as usize] > 0.0,
                    used,
                    "{} {p:?}",
                    v.label()
                );
            }
        }
    }

    #[test]
    fn closed_form_counts_equal_a_count_over_every_tile() {
        for v in Variant::all() {
            for nt in [1, 2, 19, 20, 21, 40, 41] {
                let policy = v.policy(nt);
                let (mut tiles, mut bytes) = ([0.0f64; 3], 0.0f64);
                for i in 0..nt {
                    for j in 0..=i {
                        let p = policy.assign(i, j, 1.0);
                        tiles[p as usize] += 1.0;
                        bytes += p.bytes() as f64;
                    }
                }
                // The model's diagonal is its own term; the runs count the rest.
                let mut closed = [0.0f64; 3];
                closed[policy.assign(0, 0, 1.0) as usize] += nt as f64;
                for (p, lo, hi) in distance_runs(&policy, nt) {
                    closed[p as usize] += tiles_at_distances(nt, lo, hi);
                }
                let case = format!("{} nt={nt}", v.label());
                assert_eq!(closed, tiles, "{case}");
                let total = (nt * (nt + 1) / 2) as f64;
                assert_eq!(avg_bytes_per_element(v, nt), bytes / total, "{case}");
            }
        }
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
