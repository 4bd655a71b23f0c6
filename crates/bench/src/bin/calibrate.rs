//! Calibration dashboard: prints the model outputs against every paper
//! target so the derating constants in `exaclim-cluster` can be tuned.

use exaclim_cluster::machines::{Machine, MachineSpec};
use exaclim_cluster::scaling::strong_scaling;
use exaclim_cluster::sim::{simulate_cholesky, SimConfig};
use exaclim_linalg::precision::Variant;

fn main() {
    let summit = MachineSpec::of(Machine::Summit);
    // Fig 6: Summit 2048 nodes, 8.39M.
    let dp = simulate_cholesky(&summit, &SimConfig::new(8_390_000, 2048, Variant::Dp));
    println!(
        "Summit DP frac of peak: {:.3} (paper 0.617)",
        dp.pflops / summit.dp_peak_pf(2048)
    );
    for v in [Variant::DpSp, Variant::DpSpHp, Variant::DpHp] {
        let r = simulate_cholesky(&summit, &SimConfig::new(8_390_000, 2048, v));
        println!(
            "  {} speedup {:.2} (paper {})",
            v.label(),
            r.pflops / dp.pflops,
            match v {
                Variant::DpSp => "2.0",
                Variant::DpSpHp => "3.2",
                _ => "5.2",
            }
        );
    }
    let hp = simulate_cholesky(&summit, &SimConfig::new(8_390_000, 2048, Variant::DpHp));
    println!("Summit DP/HP @8.39M: {:.1} PF (paper 304.84)", hp.pflops);
    // Table I: 1024 nodes DP/HP.
    println!("--- Table I (TF/GPU @1024 nodes, DP/HP) ---");
    for (m, n, target) in [
        (Machine::Frontier, 8_390_000usize, 54.6),
        (Machine::Alps, 10_490_000, 93.8),
        (Machine::Leonardo, 8_390_000, 57.2),
        (Machine::Summit, 6_290_000, 25.0),
    ] {
        let spec = MachineSpec::of(m);
        let r = simulate_cholesky(&spec, &SimConfig::new(n, 1024, Variant::DpHp));
        let per_gpu = r.pflops * 1e3 / (1024 * spec.gpus_per_node) as f64;
        println!(
            "  {:<9} {:>6.1} TF/GPU (paper {target})",
            spec.name, per_gpu
        );
    }
    // Fig 8 largest runs.
    println!("--- Fig 8 (PFlop/s) ---");
    for (m, nodes, n, target) in [
        (Machine::Frontier, 9_025usize, 27_240_000usize, 976.0),
        (Machine::Frontier, 6_400, 20_970_000, 715.0),
        (Machine::Frontier, 4_096, 16_780_000, 523.0),
        (Machine::Frontier, 2_048, 12_580_000, 316.0),
        (Machine::Alps, 1_936, 15_730_000, 739.0),
        (Machine::Alps, 1_600, 14_420_000, 623.0),
        (Machine::Alps, 1_024, 10_490_000, 364.0),
        (Machine::Summit, 3_072, 12_580_000, 375.0),
        (Machine::Leonardo, 1_024, 8_390_000, 243.0),
    ] {
        let spec = MachineSpec::of(m);
        let r = simulate_cholesky(&spec, &SimConfig::new(n, nodes, Variant::DpHp));
        println!(
            "  {:<9} {:>5} nodes {:>7.2}M: {:>7.1} PF (paper {target})",
            spec.name,
            nodes,
            n as f64 / 1e6,
            r.pflops
        );
    }
    // Fig 7 strong scaling at 4x.
    println!("--- Fig 7 strong scaling eff @4x (paper DP 55, DP/SP 72, DP/SP/HP 60, DP/HP 56) ---");
    for v in Variant::all() {
        let pts = strong_scaling(&summit, v, &[3072, 6144, 12288], 12_580_000);
        println!(
            "  {:<9} {:.0}% -> {:.0}%",
            v.label(),
            pts[1].efficiency_pct,
            pts[2].efficiency_pct
        );
    }
    // Fig 5: new vs old at 128 nodes.
    println!(
        "--- Fig 5 new/old speedup @128 Summit nodes (paper DP 1.15, DP/SP 1.06, DP/HP 1.53) ---"
    );
    for v in [Variant::Dp, Variant::DpSp, Variant::DpHp] {
        let mut sp = 0.0;
        for n in [660_000usize, 860_000, 1_060_000, 1_270_000] {
            let new = simulate_cholesky(&summit, &SimConfig::new(n, 128, v));
            let old = simulate_cholesky(&summit, &SimConfig::legacy(n, 128, v));
            sp = new.pflops / old.pflops;
        }
        println!("  {:<9} {:.2}", v.label(), sp);
    }
}
