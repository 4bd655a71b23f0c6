//! Exascale scaling study on the cluster performance model: the largest
//! runs of Figure 8 plus weak/strong scaling on Summit (Figure 7), executed
//! on `exaclim_cluster`'s simulated machines, which stand in for the
//! evaluation hardware (see that crate's docs).
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use exaclim_cluster::machines::{Machine, MachineSpec};
use exaclim_cluster::scaling::{strong_scaling, weak_scaling};
use exaclim_cluster::sim::{simulate_cholesky, SimConfig, Variant};

fn main() {
    println!("== Largest-scale DP/HP runs (Figure 8 scenario) ==");
    println!(
        "{:<10} {:>7} {:>8} {:>10} {:>12}",
        "machine", "nodes", "GPUs", "matrix", "PFlop/s"
    );
    let runs = [
        (Machine::Frontier, 9_025usize, 27_240_000usize),
        (Machine::Alps, 1_936, 15_730_000),
        (Machine::Summit, 3_072, 12_580_000),
        (Machine::Leonardo, 1_024, 8_390_000),
    ];
    let mut best = 0.0f64;
    for (m, nodes, n) in runs {
        let spec = MachineSpec::of(m);
        let r = simulate_cholesky(&spec, &SimConfig::new(n, nodes, Variant::DpHp));
        println!(
            "{:<10} {:>7} {:>8} {:>9.2}M {:>12.1}",
            spec.name,
            nodes,
            nodes * spec.gpus_per_node,
            n as f64 / 1e6,
            r.pflops
        );
        best = best.max(r.pflops);
    }
    println!(
        "peak modeled rate: {:.3} EFlop/s (paper: 0.976 EFlop/s on Frontier)",
        best / 1e3
    );
    assert!(
        best > 400.0,
        "the Frontier run must be sub-exascale-class at least"
    );

    println!();
    println!("== Summit weak scaling, DP/HP (Figure 7 left) ==");
    let spec = MachineSpec::of(Machine::Summit);
    for p in weak_scaling(
        &spec,
        Variant::DpHp,
        &[384, 1536, 3072, 6144, 12288],
        1_500_000,
    ) {
        println!(
            "  {:>6} GPUs  n = {:>9.2}M  {:>7.2} TF/GPU  efficiency {:>5.0}%",
            p.gpus,
            p.n as f64 / 1e6,
            p.tflops_per_gpu,
            p.efficiency_pct
        );
    }

    println!();
    println!("== Summit strong scaling (Figure 7 right) ==");
    for v in Variant::all() {
        let pts = strong_scaling(&spec, v, &[3072, 6144, 12288], 12_580_000);
        let effs: Vec<String> = pts
            .iter()
            .map(|p| format!("{:.0}%", p.efficiency_pct))
            .collect();
        println!("  {:<9} {}", v.label(), effs.join(" → "));
    }
}
