//! Figure 8: the largest-scale DP/HP runs on all four systems, including
//! the Frontier and Alps run-up points.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin fig8
//! ```

use exaclim_cluster::machines::{Machine, MachineSpec};
use exaclim_cluster::sim::{simulate_cholesky, SimConfig};
use exaclim_linalg::precision::Variant;

fn main() {
    println!("== Figure 8: largest runs (DP/HP variant) ==");
    println!(
        "{:<10} {:>7} {:>8} {:>9} {:>12} {:>12} {:>8}",
        "machine", "nodes", "GPUs", "matrix", "model PF", "paper PF", "ratio"
    );
    let runs = [
        (Machine::Frontier, 2_048usize, 12_580_000usize, 316.0),
        (Machine::Frontier, 4_096, 16_780_000, 523.0),
        (Machine::Frontier, 6_400, 20_970_000, 715.0),
        (Machine::Frontier, 9_025, 27_240_000, 976.0),
        (Machine::Alps, 1_024, 10_490_000, 364.0),
        (Machine::Alps, 1_600, 14_420_000, 623.0),
        (Machine::Alps, 1_936, 15_730_000, 739.0),
        (Machine::Summit, 3_072, 12_580_000, 375.0),
        (Machine::Leonardo, 1_024, 8_390_000, 243.0),
    ];
    let mut frontier_series = Vec::new();
    for (m, nodes, n, paper) in runs {
        let spec = MachineSpec::of(m);
        let r = simulate_cholesky(&spec, &SimConfig::new(n, nodes, Variant::DpHp));
        println!(
            "{:<10} {:>7} {:>8} {:>8.2}M {:>12.1} {:>12.1} {:>8.2}",
            spec.name,
            nodes,
            nodes * spec.gpus_per_node,
            n as f64 / 1e6,
            r.pflops,
            paper,
            r.pflops / paper
        );
        if m == Machine::Frontier {
            frontier_series.push(r.pflops);
        }
    }
    // Shape checks: Frontier's run-up is monotone and the 9,025-node run is
    // the global maximum (the paper's 0.976 EFlop/s headline).
    for w in frontier_series.windows(2) {
        assert!(w[1] > w[0], "Frontier run-up must be monotone");
    }
    let frontier_max = frontier_series.last().copied().unwrap();
    println!();
    println!(
        "modeled Frontier flagship: {:.3} EFlop/s (paper: 0.976 EFlop/s)",
        frontier_max / 1e3
    );
    assert!(
        frontier_max > 600.0,
        "must be within 2× of the paper's EFlop/s scale"
    );
    assert!(
        frontier_max / 1e3 > 0.5 && frontier_max / 1e3 < 2.0,
        "order-of-magnitude agreement with 0.976 EF"
    );
}
