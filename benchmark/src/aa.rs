//! `aa`: the same code measured twice, checked against its own bounds.
//!
//! Every workload runs `runs` times as side A and `runs` times as side B —
//! alternating which side goes first, one process per run, a different
//! seed per pair — and each end-to-end metric is judged the way the driver
//! judges the benchmark: each side's inter-quartile range (as a share of
//! its median) must stay inside the metric's bound (`setup_s` excepted),
//! and neither side's median may be worse than the other's by more than
//! the bound. The table it prints is the benchmark's measured noise floor.

use crate::report::ResultLine;
use crate::spec::{BenchmarkSpec, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::Options;
use std::process::Command;

fn run_once(workload: &str, seed: u64, options: &Options) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        "0",
    ]);
    if let Some(s) = options.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if options.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child, so no process outlives this call.
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = ResultLine::parse(last)?;
    if !result.correct || result.failed != 0 {
        return Err(format!("{workload} seed {seed} was not correct:\n{stdout}"));
    }
    Ok(result)
}

/// Share by which `b` is worse than `a`.
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

/// Six significant digits, whatever the magnitude.
fn significant(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}

/// Run the A/A comparison; `Ok(true)` when every metric passed.
pub fn run(options: &Options) -> Result<bool, String> {
    if options.runs < 2 {
        return Err("--runs must be at least 2 (quartiles need two values)".to_string());
    }
    let spec = BenchmarkSpec::load()?;
    println!(
        "A/A: {} runs a side, seeds {}..{}, env {}",
        options.runs,
        options.seed,
        options.seed + options.runs as u64 - 1,
        crate::env::describe()
    );
    println!();
    println!(
        "| workload | metric | median A | IQR A | median B | IQR B | B vs A | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for workload in WORKLOADS {
        let (mut side_a, mut side_b) = (Vec::new(), Vec::new());
        for r in 0..options.runs {
            let seed = options.seed + r as u64;
            let first = run_once(workload, seed, options)?;
            let second = run_once(workload, seed, options)?;
            // Alternate which side runs first, so drift favours neither.
            if r % 2 == 0 {
                side_a.push(first);
                side_b.push(second);
            } else {
                side_b.push(first);
                side_a.push(second);
            }
        }
        for (k, m) in spec.end_to_end.iter().enumerate() {
            let values =
                |side: &[ResultLine]| -> Vec<f64> { side.iter().map(|r| r.metrics[k].1).collect() };
            let (a, b) = (values(&side_a), values(&side_b));
            let (med_a, med_b) = (median(&a), median(&b));
            let (iqr_a, iqr_b) = (iqr_share(&a), iqr_share(&b));
            let lower = m.better == "lower";
            let drift = worse_by(med_a, med_b, lower).max(worse_by(med_b, med_a, lower));
            let spread_ok = m.name == "setup_s" || iqr_a.max(iqr_b) <= m.bound;
            let pass = spread_ok && drift <= m.bound;
            all_pass &= pass;
            println!(
                "| {workload} | {} ({}) | {} | {:.2} % | {} | {:.2} % | {:+.2} % | {:.1} % | {} |",
                m.name,
                m.unit,
                significant(med_a),
                100.0 * iqr_a,
                significant(med_b),
                100.0 * iqr_b,
                100.0 * worse_by(med_a, med_b, lower),
                100.0 * m.bound,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    println!();
    if options.quick {
        // Counts ÷ 50 measure nothing; the table only shows the plumbing.
        println!("A/A not gated (--quick)");
        return Ok(true);
    }
    println!("A/A {}", if all_pass { "PASS" } else { "FAIL" });
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, true), 0.0);
    }
}
