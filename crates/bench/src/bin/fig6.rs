//! Figure 6: Cholesky performance of the four precision variants on 2,048
//! Summit nodes (12,288 V100), matrix sizes 2.10M–8.39M.
//!
//! Paper anchors: DP reaches 61.7% of the DP peak; speedups over DP are
//! 2.0× (DP/SP), 3.2× (DP/SP/HP), 5.2× (DP/HP); DP/HP reaches
//! 304.84 PFlop/s at 8.39M.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin fig6
//! ```

use exaclim_cluster::machines::{Machine, MachineSpec};
use exaclim_cluster::sim::{simulate_cholesky, SimConfig};
use exaclim_linalg::precision::Variant;

fn main() {
    let spec = MachineSpec::of(Machine::Summit);
    let nodes = 2_048;
    let peak = spec.dp_peak_pf(nodes);
    let sizes: [usize; 7] = [
        2_100_000, 3_150_000, 4_190_000, 5_240_000, 6_290_000, 7_340_000, 8_390_000,
    ];
    println!("== Figure 6: Summit {nodes} nodes (12,288 V100), DP peak {peak:.1} PF ==");
    print!("{:<10}", "matrix");
    for v in Variant::all() {
        print!(" {:>10}", v.label());
    }
    println!();
    let mut at_max = [0.0f64; 4];
    for &n in &sizes {
        print!("{:>8.2}M ", n as f64 / 1e6);
        for (i, v) in Variant::all().into_iter().enumerate() {
            let r = simulate_cholesky(&spec, &SimConfig::new(n, nodes, v));
            print!(" {:>10.1}", r.pflops);
            if n == *sizes.last().unwrap() {
                at_max[i] = r.pflops;
            }
        }
        println!();
    }
    println!();
    let dp = at_max[0];
    println!(
        "DP fraction of peak at 8.39M: {:.1}% (paper: 61.7%)",
        100.0 * dp / peak
    );
    for (i, v) in Variant::all().into_iter().enumerate().skip(1) {
        let paper = [0.0, 2.0, 3.2, 5.2][i];
        println!(
            "{:<9} speedup over DP: {:.2}× (paper: {paper}×)",
            v.label(),
            at_max[i] / dp
        );
    }
    println!(
        "DP/HP at 8.39M: {:.1} PFlop/s (paper: 304.84 PFlop/s)",
        at_max[3]
    );
    assert!(at_max[3] / dp > at_max[2] / dp && at_max[2] / dp > at_max[1] / dp);
    assert!(at_max[1] / dp > 1.0);
}
