//! Energy model of the mixed-precision Cholesky.
//!
//! Reference \[35\] of the paper (Cao et al., CLUSTER 2023) reports that
//! automated precision conversion reduces both data motion *and energy*.
//! This module prices a simulated run: dynamic compute energy per flop and
//! per precision, data-motion energy per byte, plus idle/base power over
//! the makespan — enough to reproduce the "mixed precision saves energy"
//! ablation at the paper's scales.

use crate::machines::MachineSpec;
use crate::sim::{simulate_cholesky, SimConfig, SimResult};

/// Energy price book (order-of-magnitude literature constants).
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    /// Dynamic energy per DP flop, picojoules (FMA + register traffic).
    pub pj_per_dp_flop: f64,
    /// SP flop energy, pJ.
    pub pj_per_sp_flop: f64,
    /// HP (tensor) flop energy, pJ.
    pub pj_per_hp_flop: f64,
    /// Network data-motion energy per byte, pJ.
    pub pj_per_wire_byte: f64,
    /// Idle/base power per GPU, watts (HBM refresh, clocks, host share).
    pub idle_watts_per_gpu: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            pj_per_dp_flop: 20.0,
            pj_per_sp_flop: 7.0,
            pj_per_hp_flop: 1.5,
            pj_per_wire_byte: 500.0,
            idle_watts_per_gpu: 100.0,
        }
    }
}

/// Energy report of one simulated run.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// Dynamic compute energy, joules.
    pub compute_joules: f64,
    /// Data-motion energy, joules.
    pub wire_joules: f64,
    /// Idle/base energy over the makespan, joules.
    pub idle_joules: f64,
    /// Average power draw, megawatts.
    pub average_megawatts: f64,
    /// Energy efficiency, GFlops per watt.
    pub gflops_per_watt: f64,
}

impl EnergyReport {
    /// Total joules.
    pub fn total_joules(&self) -> f64 {
        self.compute_joules + self.wire_joules + self.idle_joules
    }
}

/// Price a simulated run.
pub fn energy_of_run(
    model: &EnergyModel,
    spec: &MachineSpec,
    cfg: &SimConfig,
    result: &SimResult,
) -> EnergyReport {
    let [hp, sp, dp] = result.flops_by_precision;
    let compute =
        (hp * model.pj_per_hp_flop + sp * model.pj_per_sp_flop + dp * model.pj_per_dp_flop) * 1e-12;
    let wire = result.wire_bytes * model.pj_per_wire_byte * 1e-12;
    let gpus = (cfg.nodes * spec.gpus_per_node) as f64;
    let idle = model.idle_watts_per_gpu * gpus * result.seconds;
    let total = compute + wire + idle;
    let watts = total / result.seconds;
    let total_flops: f64 = result.flops_by_precision.iter().sum();
    EnergyReport {
        compute_joules: compute,
        wire_joules: wire,
        idle_joules: idle,
        average_megawatts: watts / 1e6,
        gflops_per_watt: total_flops / result.seconds / watts / 1e9,
    }
}

/// Convenience: simulate and price in one call.
pub fn simulate_energy(
    model: &EnergyModel,
    spec: &MachineSpec,
    cfg: &SimConfig,
) -> (SimResult, EnergyReport) {
    let r = simulate_cholesky(spec, cfg);
    let e = energy_of_run(model, spec, cfg, &r);
    (r, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{Machine, MachineSpec};
    use exaclim_linalg::precision::Variant;

    fn summit_run(v: Variant) -> (SimResult, EnergyReport) {
        let spec = MachineSpec::of(Machine::Summit);
        let cfg = SimConfig::new(8_390_000, 2_048, v);
        simulate_energy(&EnergyModel::default(), &spec, &cfg)
    }

    #[test]
    fn mixed_precision_saves_energy() {
        let (_, dp) = summit_run(Variant::Dp);
        let (_, hp) = summit_run(Variant::DpHp);
        assert!(
            hp.total_joules() < 0.5 * dp.total_joules(),
            "DP/HP {:.2e} J vs DP {:.2e} J",
            hp.total_joules(),
            dp.total_joules()
        );
        assert!(hp.gflops_per_watt > 2.0 * dp.gflops_per_watt);
    }

    #[test]
    fn energy_ordering_follows_variants() {
        let js: Vec<f64> = Variant::all()
            .into_iter()
            .map(|v| summit_run(v).1.total_joules())
            .collect();
        // DP > DP/SP > DP/SP/HP > DP/HP.
        for w in js.windows(2) {
            assert!(w[0] > w[1], "{js:?}");
        }
    }

    #[test]
    fn power_draw_is_machine_plausible() {
        // Summit's measured full-system draw was ~10 MW; a 2,048-node run
        // (44% of the machine) should draw single-digit megawatts.
        let (_, dp) = summit_run(Variant::Dp);
        assert!(
            dp.average_megawatts > 0.5 && dp.average_megawatts < 15.0,
            "{} MW",
            dp.average_megawatts
        );
    }

    #[test]
    fn idle_energy_scales_with_makespan() {
        let spec = MachineSpec::of(Machine::Summit);
        let model = EnergyModel::default();
        let fast = SimConfig::new(8_390_000, 2_048, Variant::DpHp);
        let slow = SimConfig::new(8_390_000, 2_048, Variant::Dp);
        let (rf, ef) = simulate_energy(&model, &spec, &fast);
        let (rs, es) = simulate_energy(&model, &spec, &slow);
        assert!(rs.seconds > rf.seconds);
        assert!(
            (es.idle_joules / ef.idle_joules - rs.seconds / rf.seconds).abs() < 1e-9,
            "idle energy proportional to time"
        );
    }
}
