//! Machine catalog: the four systems of §IV.D.
//!
//! Peaks are the published per-device numbers; `eff_*` are the fractions of
//! peak a large tile GEMM sustains in each precision (DGEMM on these parts
//! reaches 85–95% of peak; half-precision tensor GEMM sustains a far lower
//! fraction at Cholesky tile sizes because it turns memory-bound). These
//! derating factors are the calibration knobs of the model; the `calibrate`
//! bin of `exaclim-bench` prints the model against the paper's anchors they
//! are tuned to.

use serde::{Deserialize, Serialize};

/// The four evaluation systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Machine {
    /// ORNL Frontier — AMD MI250X (counted per MCM as in the paper).
    Frontier,
    /// CSCS Alps — NVIDIA GH200 (H100 GPU).
    Alps,
    /// CINECA Leonardo — NVIDIA A100 64 GB.
    Leonardo,
    /// ORNL Summit — NVIDIA V100.
    Summit,
}

/// Hardware description used by the simulator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// GPU devices per node (MI250X counted per MCM, as the paper does).
    pub gpus_per_node: usize,
    /// Total nodes in the machine.
    pub max_nodes: usize,
    /// Per-GPU double-precision peak, TFlop/s.
    pub dp_peak_tf: f64,
    /// Per-GPU single-precision (or TF32 tensor) peak, TFlop/s.
    pub sp_peak_tf: f64,
    /// Per-GPU half-precision tensor peak, TFlop/s.
    pub hp_peak_tf: f64,
    /// Sustained fraction of peak for large DP tile kernels.
    pub eff_dp: f64,
    /// Sustained fraction for SP.
    pub eff_sp: f64,
    /// Sustained fraction for HP tensor GEMM at Cholesky tile sizes.
    pub eff_hp: f64,
    /// Per-GPU device memory, GB.
    pub mem_gb: f64,
    /// Node injection bandwidth, GB/s.
    pub node_bw_gbs: f64,
    /// Point-to-point message latency, microseconds.
    pub latency_us: f64,
}

impl MachineSpec {
    /// Spec of one of the catalog machines.
    pub fn of(machine: Machine) -> Self {
        match machine {
            Machine::Frontier => MachineSpec {
                name: "Frontier",
                gpus_per_node: 4, // MCMs; two GCDs each
                max_nodes: 9472,
                dp_peak_tf: 47.9, // per MCM, vector; matrix engines higher
                sp_peak_tf: 95.7,
                hp_peak_tf: 383.0,
                eff_dp: 0.85,
                eff_sp: 0.70,
                eff_hp: 0.14,
                mem_gb: 128.0,
                node_bw_gbs: 100.0,
                latency_us: 2.0,
            },
            Machine::Alps => MachineSpec {
                name: "Alps",
                gpus_per_node: 4,
                max_nodes: 2688,
                dp_peak_tf: 67.0,  // H100 SXM tensor DP
                sp_peak_tf: 494.0, // TF32 tensor (dense)
                hp_peak_tf: 989.0,
                eff_dp: 0.80,
                eff_sp: 0.35,
                eff_hp: 0.115,
                mem_gb: 96.0,
                node_bw_gbs: 100.0,
                latency_us: 2.0,
            },
            Machine::Leonardo => MachineSpec {
                name: "Leonardo",
                gpus_per_node: 4,
                max_nodes: 3456,
                dp_peak_tf: 19.5,  // A100 tensor DP
                sp_peak_tf: 156.0, // TF32 tensor
                hp_peak_tf: 312.0,
                eff_dp: 0.85,
                eff_sp: 0.40,
                eff_hp: 0.30,
                mem_gb: 64.0,
                node_bw_gbs: 25.0,
                latency_us: 2.0,
            },
            Machine::Summit => MachineSpec {
                name: "Summit",
                gpus_per_node: 6,
                max_nodes: 4608,
                dp_peak_tf: 7.8,
                sp_peak_tf: 15.7,
                hp_peak_tf: 125.0,
                eff_dp: 0.90,
                eff_sp: 0.85,
                eff_hp: 0.35,
                mem_gb: 16.0,
                node_bw_gbs: 25.0,
                latency_us: 1.5,
            },
        }
    }

    /// Effective per-GPU tile-kernel rate in TFlop/s for a precision bucket
    /// (`0` = HP, `1` = SP, `2` = DP — matching `exaclim_linalg` bucketing).
    pub fn rate_tf(&self, bucket: usize) -> f64 {
        match bucket {
            0 => self.hp_peak_tf * self.eff_hp,
            1 => self.sp_peak_tf * self.eff_sp,
            _ => self.dp_peak_tf * self.eff_dp,
        }
    }

    /// Machine DP peak at `nodes`, PFlop/s.
    pub fn dp_peak_pf(&self, nodes: usize) -> f64 {
        nodes as f64 * self.gpus_per_node as f64 * self.dp_peak_tf / 1e3
    }

    /// Largest matrix dimension whose tiles (at `avg_bytes` per element,
    /// variant-dependent) fit aggregate device memory. Half of memory is
    /// reserved for runtime buffers — the paper notes matrix sizes max out
    /// device memory "in addition to PaRSEC internal memory buffers".
    pub fn max_matrix_n(&self, nodes: usize, avg_bytes: f64) -> usize {
        let bytes = 0.5 * self.mem_gb * 1e9 * (nodes * self.gpus_per_node) as f64;
        // Lower-triangular storage: n(n+1)/2 × avg_bytes ≤ bytes.
        ((2.0 * bytes / avg_bytes).sqrt()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_paper_counts() {
        let f = MachineSpec::of(Machine::Frontier);
        // Paper: 9,025 nodes = 36,100 MI250X.
        assert_eq!(9_025 * f.gpus_per_node, 36_100);
        let s = MachineSpec::of(Machine::Summit);
        // Paper: 3,072 nodes = 18,432 V100; 2,048 nodes = 12,288.
        assert_eq!(3_072 * s.gpus_per_node, 18_432);
        assert_eq!(2_048 * s.gpus_per_node, 12_288);
        let a = MachineSpec::of(Machine::Alps);
        // Paper: 1,936 nodes = 7,744 GH200.
        assert_eq!(1_936 * a.gpus_per_node, 7_744);
        let l = MachineSpec::of(Machine::Leonardo);
        // Paper: 1,024 nodes = 4,096 A100.
        assert_eq!(1_024 * l.gpus_per_node, 4_096);
    }

    #[test]
    fn summit_dp_peak_matches_top500_scale() {
        let s = MachineSpec::of(Machine::Summit);
        // Full Summit ≈ 200 PF DP (paper: 200.79 PF theoretical peak).
        let peak = s.dp_peak_pf(s.max_nodes);
        assert!((peak - 200.0).abs() < 20.0, "peak {peak}");
    }

    #[test]
    fn hp_rates_exceed_dp_rates() {
        for m in [
            Machine::Frontier,
            Machine::Alps,
            Machine::Leonardo,
            Machine::Summit,
        ] {
            let spec = MachineSpec::of(m);
            assert!(spec.rate_tf(0) > spec.rate_tf(2), "{}", spec.name);
            assert!(spec.rate_tf(1) >= spec.rate_tf(2) * 0.9, "{}", spec.name);
        }
    }

    #[test]
    fn memory_capacity_ordering() {
        // Paper Table I (DP/HP ≈ 2.5 B/element): Summit 6.29M < Leonardo
        // 8.39M < Alps 10.49M on 1,024 nodes — driven by per-GPU memory.
        let n_summit = MachineSpec::of(Machine::Summit).max_matrix_n(1024, 2.5);
        let n_leo = MachineSpec::of(Machine::Leonardo).max_matrix_n(1024, 2.5);
        let n_alps = MachineSpec::of(Machine::Alps).max_matrix_n(1024, 2.5);
        assert!(n_summit < n_leo, "{n_summit} vs {n_leo}");
        assert!(n_leo < n_alps, "{n_leo} vs {n_alps}");
        // Summit @1024 nodes holds ~6M-range DP/HP matrices (paper: 6.29M).
        assert!(n_summit > 5_000_000 && n_summit < 8_000_000, "{n_summit}");
        // Alps holds the 10.49M the paper reports.
        assert!(n_alps > 10_000_000, "{n_alps}");
    }
}
