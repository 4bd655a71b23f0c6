//! Energy ablation (paper ref. \[35\]: automated precision conversion reduces
//! data motion *and* energy): joules and GFlops/W for the four precision
//! variants of the 2,048-node Summit run of Figure 6.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin energy
//! ```

use exaclim_cluster::energy::{simulate_energy, EnergyModel};
use exaclim_cluster::machines::{Machine, MachineSpec};
use exaclim_cluster::sim::SimConfig;
use exaclim_linalg::precision::Variant;

fn main() {
    let spec = MachineSpec::of(Machine::Summit);
    let model = EnergyModel::default();
    let n = 8_390_000;
    let nodes = 2_048;
    println!(
        "== Energy of the Figure 6 runs (Summit {nodes} nodes, {:.2}M) ==",
        n as f64 / 1e6
    );
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "variant", "seconds", "compute MJ", "wire MJ", "idle MJ", "avg MW", "GFlops/W"
    );
    let mut dp_joules = 0.0;
    let mut hp_joules = 0.0;
    for v in Variant::all() {
        let cfg = SimConfig::new(n, nodes, v);
        let (r, e) = simulate_energy(&model, &spec, &cfg);
        println!(
            "{:<10} {:>10.1} {:>12.1} {:>12.1} {:>12.1} {:>10.2} {:>12.1}",
            v.label(),
            r.seconds,
            e.compute_joules / 1e6,
            e.wire_joules / 1e6,
            e.idle_joules / 1e6,
            e.average_megawatts,
            e.gflops_per_watt
        );
        match v {
            Variant::Dp => dp_joules = e.total_joules(),
            Variant::DpHp => hp_joules = e.total_joules(),
            _ => {}
        }
    }
    println!();
    println!(
        "DP/HP uses {:.1}× less energy than DP for the same factorization —\n\
         the sustainability argument of §I (\"a more sustainable swim lane to\n\
         climate modeling\") quantified.",
        dp_joules / hp_joules
    );
    assert!(dp_joules / hp_joules > 2.0);
}
