//! Table I: DP/HP performance on 1,024 nodes of Frontier, Alps, Leonardo,
//! and Summit — absolute PFlop/s and normalized TFlop/s per GPU.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin table1
//! ```

use exaclim_cluster::machines::{Machine, MachineSpec};
use exaclim_cluster::sim::{avg_bytes_per_element, simulate_cholesky, SimConfig};
use exaclim_linalg::precision::Variant;

fn main() {
    println!("== Table I: DP/HP on 1,024 nodes ==");
    println!(
        "{:<10} {:>6} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "system", "GPUs", "matrix", "model PF", "paper PF", "TF/GPU", "paper TF/GPU"
    );
    // (machine, paper matrix size, paper PF, paper TF/GPU)
    let rows = [
        (Machine::Frontier, 8_390_000usize, 223.7, 54.6),
        (Machine::Alps, 10_490_000, 384.2, 93.8),
        (Machine::Leonardo, 8_390_000, 243.1, 57.2),
        (Machine::Summit, 6_290_000, 153.6, 25.0),
    ];
    let mut per_gpu = Vec::new();
    for (m, n, paper_pf, paper_tf) in rows {
        let spec = MachineSpec::of(m);
        let gpus = 1024 * spec.gpus_per_node;
        let cfg = SimConfig::new(n, 1024, Variant::DpHp);
        let r = simulate_cholesky(&spec, &cfg);
        let tf_gpu = r.pflops * 1e3 / gpus as f64;
        println!(
            "{:<10} {:>6} {:>8.2}M {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            spec.name,
            gpus,
            n as f64 / 1e6,
            r.pflops,
            paper_pf,
            tf_gpu,
            paper_tf
        );
        per_gpu.push((spec.name, tf_gpu, paper_tf));
        // Matrix sizes the paper used must fit the modeled memory.
        let nt = n / cfg.tile;
        assert!(
            n <= spec.max_matrix_n(1024, avg_bytes_per_element(Variant::DpHp, nt)) * 2,
            "{}: paper size must be near the memory capacity",
            spec.name
        );
        // Within 35% of the paper's absolute number.
        assert!(
            (tf_gpu / paper_tf - 1.0).abs() < 0.35,
            "{}: {tf_gpu:.1} vs paper {paper_tf}",
            spec.name
        );
    }
    println!();
    // The paper's ordering: GH200 > A100 ≈ MI250X > V100 per GPU.
    let get = |name: &str| per_gpu.iter().find(|(n, ..)| *n == name).unwrap().1;
    assert!(get("Alps") > get("Leonardo"));
    assert!(get("Leonardo") > get("Summit"));
    assert!(get("Frontier") > get("Summit"));
    println!(
        "ordering reproduced: GH200 ({:.0}) > A100 ({:.0}) ≈ MI250X ({:.0}) > V100 ({:.0}) TF/GPU;\n\
         GH200 outperforms MI250X by {:.1}× (paper: 1.6×, ≈1.7× per Table I numbers)",
        get("Alps"),
        get("Leonardo"),
        get("Frontier"),
        get("Summit"),
        get("Alps") / get("Frontier")
    );
}
