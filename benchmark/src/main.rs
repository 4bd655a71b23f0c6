//! The exaclim benchmark: five closed-loop workloads, six end-to-end
//! metrics, and a layer trace taken from outside the program.
//!
//! ```text
//! exaclim-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! exaclim-benchmark aa [--runs N] [--seed N] [--seconds S] [--quick]
//! ```
//!
//! One invocation runs one workload in its own process (so peak memory is
//! that workload's) and ends its standard output with one JSON result
//! line. `--trace 1` repeats the workload under spans and reports the
//! per-layer metrics instead; `aa` runs every workload twice over and
//! checks the two sides against the bounds in `BENCHMARK.json`. See
//! `README.md` beside this crate.

mod aa;
mod cholesky;
mod emulator;
mod env;
mod gen;
mod harness;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use harness::{RunArgs, RunReport};
use std::process::ExitCode;
use std::time::Instant;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20260928;

const USAGE: &str = "usage: exaclim-benchmark --workload <name> [--seed N] [--seconds S] \
[--trace 0|1] [--quick]\n       exaclim-benchmark aa [--runs N] [--seed N] [--seconds S] [--quick]\n\
workloads: emulator_design cholesky_mixed serve_cold serve_net_bulk serve_net_small";

/// Options shared by both modes, parsed from `--key value` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// `--workload`.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`; defaults to `run_seconds` of `BENCHMARK.json`.
    pub seconds: Option<u64>,
    /// `--trace`.
    pub trace: bool,
    /// `--quick`.
    pub quick: bool,
    /// `--runs` (`aa` only).
    pub runs: usize,
}

impl Options {
    /// Parse `argv` (program name and mode word already removed).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut o = Self {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: None,
            trace: false,
            quick: false,
            runs: 5,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                o.quick = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let int = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => o.workload = Some(value.clone()),
                "--seed" => o.seed = int()?,
                "--seconds" => o.seconds = Some(int()?.max(1)),
                "--runs" => o.runs = int()? as usize,
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
            }
        }
        Ok(o)
    }
}

fn dispatch(args: &RunArgs) -> Result<RunReport, String> {
    match args.workload.as_str() {
        "emulator_design" => harness::run::<emulator::EmulatorDesign>(args),
        "cholesky_mixed" => harness::run::<cholesky::CholeskyMixed>(args),
        "serve_cold" => harness::run::<serve::ServeCold>(args),
        "serve_net_bulk" => harness::run::<serve::ServeNetBulk>(args),
        "serve_net_small" => harness::run::<serve::ServeNetSmall>(args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

fn print_metric(name: &str, value: f64, unit: &str) {
    if value != 0.0 && value.abs() < 1e-3 {
        println!("{name:<36} {value:>16.6e} {unit}");
    } else {
        println!("{name:<36} {value:>16.6} {unit}");
    }
}

/// Run one workload and print its report; the result line goes last.
fn run_one(options: &Options, started: Instant) -> Result<(), String> {
    let spec = spec::BenchmarkSpec::load()?;
    let args = RunArgs {
        workload: options
            .workload
            .clone()
            .ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: options.seed,
        seconds: options.seconds.unwrap_or(spec.run_seconds),
        trace: options.trace,
        quick: options.quick,
    };
    env::pin_environment()?;
    let environment = env::describe();
    let report = dispatch(&args)?;

    let run_header = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"counts\": {{\"timed\": {}, \"warmup\": {}, \"reference\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.quick,
        report.counts.timed,
        report.counts.warmup,
        report.counts.reference,
    );
    println!("run {{{run_header}}}");
    println!("env {environment}");
    for p in &report.problems {
        println!("problem: {p}");
    }
    for w in &report.warnings {
        println!("warning: {w}");
    }

    let table: Vec<(&str, f64, &str)> = if args.trace {
        spec::PER_LAYER
            .iter()
            .map(|&(n, u)| (n, report.layer[n], u))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|&(n, u)| (n, report.end_to_end[n], u))
            .collect()
    };
    for &(name, value, unit) in &table {
        print_metric(name, value, unit);
    }
    if !args.trace {
        // The canary and the ungated latency shape ride along with every
        // result, so a noisy box can be told from a regression.
        for &(name, unit) in &spec::PER_LAYER {
            if name.starts_with("machine.") || name.starts_with("harness.op_") {
                print_metric(name, report.layer[name], unit);
            }
        }
    }
    let finite = table.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        println!("problem: a metric is not a finite number");
    }
    let wall_s = started.elapsed().as_secs_f64();
    if args.trace {
        let path = env::out_dir()?.join(format!("trace-{}.json", args.workload));
        let header =
            format!("\"run\": {{{run_header}}},\n\"env\": {environment},\n\"wall_s\": {wall_s},\n");
        std::fs::write(&path, report.tracer.to_json(&header))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "trace {} ({} spans)",
            path.display(),
            report.tracer.spans().len()
        );
    }
    println!("wall_s {wall_s:.3}");
    // JSON has no NaN: a non-finite value goes out as 0 with `correct` false.
    let printable: Vec<(&str, f64, &str)> = table
        .iter()
        .map(|&(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    let correct = report.failed == 0 && report.problems.is_empty() && finite;
    println!(
        "{}",
        report::result_line(correct, report.attempted, report.failed, &printable)
    );
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("aa") => Options::parse(&argv[1..]).and_then(|o| aa::run(&o)),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) => Options::parse(&argv)
            .and_then(|o| run_one(&o, started))
            .map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn options_parse_the_driver_command_line() {
        let o = Options::parse(&argv(
            "--workload serve_cold --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("serve_cold"));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (7, Some(15), true, false)
        );
        let o = Options::parse(&argv("--quick --workload x")).unwrap();
        assert_eq!((o.seed, o.seconds, o.quick), (DEFAULT_SEED, None, true));
        assert!(Options::parse(&argv("--trace 2")).is_err());
        assert!(Options::parse(&argv("--seed")).is_err());
        assert!(Options::parse(&argv("--bogus 1")).is_err());
    }
}
