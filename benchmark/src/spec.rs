//! Names and units of every workload and metric, and the bounds file.
//!
//! `BENCHMARK.json` at the repository root is the contract (directions
//! and regression bounds); the tables here are what the harness prints.
//! A unit test keeps the two identical.

use serde::Deserialize;

/// The five workloads, in the order `aa` and `smoke.sh` run them.
pub const WORKLOADS: [&str; 5] = [
    "emulator_design",
    "cholesky_mixed",
    "serve_cold",
    "serve_net_bulk",
    "serve_net_small",
];

/// End-to-end metrics `(name, unit)`; printed by an untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("stored_bytes_per_user_byte", "ratio"),
    ("rel_error", "ratio"),
];

/// The four precision variants of `cholesky_mixed`, as metric-name keys.
pub const VARIANTS: [&str; 4] = ["dp", "dp_sp", "dp_sp_hp", "dp_hp"];

/// Per-layer metrics `(name, unit)`; printed by a traced run. A workload
/// that never enters a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 79] = [
    ("stats.trend_fit_ms", "ms"),
    ("sht.analysis_ms", "ms"),
    ("sht.synthesis_ms", "ms"),
    ("stats.var_fit_ms", "ms"),
    ("stats.covariance_ms", "ms"),
    ("linalg.tile_convert_ms", "ms"),
    ("runtime.cholesky_ms", "ms"),
    ("core.train_ms", "ms"),
    ("core.train_unattributed_ms", "ms"),
    ("stats.sample_path_ms", "ms"),
    ("core.emulate_ms", "ms"),
    ("core.emulate_steps_per_s", "steps/s"),
    ("core.validate_ms", "ms"),
    ("core.snapshot_bytes", "bytes"),
    ("core.snapshot_encode_ms", "ms"),
    ("linalg.chol_dp_ms", "ms"),
    ("linalg.chol_dp_sp_ms", "ms"),
    ("linalg.chol_dp_sp_hp_ms", "ms"),
    ("linalg.chol_dp_hp_ms", "ms"),
    ("linalg.chol_dp_gflops", "GFLOP/s"),
    ("linalg.chol_dp_sp_gflops", "GFLOP/s"),
    ("linalg.chol_dp_sp_hp_gflops", "GFLOP/s"),
    ("linalg.chol_dp_hp_gflops", "GFLOP/s"),
    ("linalg.chol_dp_residual", "ratio"),
    ("linalg.chol_dp_sp_residual", "ratio"),
    ("linalg.chol_dp_sp_hp_residual", "ratio"),
    ("linalg.chol_dp_hp_residual", "ratio"),
    ("linalg.chol_dp_payload_bytes", "bytes"),
    ("linalg.chol_dp_sp_payload_bytes", "bytes"),
    ("linalg.chol_dp_sp_hp_payload_bytes", "bytes"),
    ("linalg.chol_dp_hp_payload_bytes", "bytes"),
    ("linalg.convert_dp_ms", "ms"),
    ("linalg.convert_dp_sp_ms", "ms"),
    ("linalg.convert_dp_sp_hp_ms", "ms"),
    ("linalg.convert_dp_hp_ms", "ms"),
    ("linalg.chol_seq_dp_ms", "ms"),
    ("runtime.parallel_speedup", "ratio"),
    ("runtime.exec_utilization", "ratio"),
    ("runtime.exec_imbalance", "ratio"),
    ("runtime.critical_path_share", "ratio"),
    ("runtime.tasks_per_factorization", "count"),
    ("store.chunk_fetch_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.decode_mib_per_s", "MiB/s"),
    ("serve.batch_plan_ms", "ms"),
    ("serve.assemble_ms", "ms"),
    ("serve.handle_batch_ms", "ms"),
    ("serve.replay_ms", "ms"),
    ("serve.fanout_gain", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.chunk_decodes_per_op", "count"),
    ("serve.chunk_touches_per_op", "count"),
    ("serve.chunk_fetches_per_op", "count"),
    ("store.encode_ms", "ms"),
    ("store.encode_mib_per_s", "MiB/s"),
    ("store.write_ms", "ms"),
    ("store.crc32_mib_per_s", "MiB/s"),
    ("store.open_ms", "ms"),
    ("wire.encode_request_ms", "ms"),
    ("wire.decode_request_ms", "ms"),
    ("wire.encode_response_ms", "ms"),
    ("wire.decode_response_ms", "ms"),
    ("net.round_trip_ms", "ms"),
    ("net.transport_ms", "ms"),
    ("net.socket_floor_ms", "ms"),
    ("net.bytes_out_per_op", "bytes"),
    ("net.frames_out_per_op", "count"),
    ("net.stream_frames_per_response", "count"),
    ("net.reactor_wakeups_per_op", "count"),
    ("net.peak_conn_buffered_bytes", "bytes"),
    ("net.connect_ms", "ms"),
    ("machine.spin_p50_ms", "ms"),
    ("machine.spin_iqr_share", "ratio"),
    ("harness.op_p95_ms", "ms"),
    ("harness.op_max_ms", "ms"),
    ("harness.op_iqr_share", "ratio"),
    ("harness.verify_ms", "ms"),
    ("harness.trace_overhead_share", "ratio"),
    ("harness.op_samples", "count"),
];

// Only `run_seconds` and the end-to-end bounds steer the binary; the rest
// of the file is parsed so the contract tests below can check it.

/// One `workloads` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct WorkloadSpec {
    /// Workload name.
    pub name: String,
    /// Why the workload exists.
    pub why: String,
}

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// One `per_layer` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct PerLayerSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct BenchmarkSpec {
    /// Program and arguments the driver runs.
    pub command: Vec<String>,
    /// Directories that hold the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Gated metrics.
    pub end_to_end: Vec<EndToEndSpec>,
    /// Ungated single-layer metrics.
    pub per_layer: Vec<PerLayerSpec>,
}

impl BenchmarkSpec {
    /// The contract this binary was built against (the file is compiled
    /// in, so `aa` gates on the same bounds the driver will read).
    pub fn load() -> Result<Self, String> {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_match_the_contract_file() {
        let spec = BenchmarkSpec::load().unwrap();
        let got: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(got, WORKLOADS);
        let got: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(got, END_TO_END);
        let got: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(got, PER_LAYER);
    }

    #[test]
    fn contract_file_is_inside_the_limits() {
        let spec = BenchmarkSpec::load().unwrap();
        assert_eq!(spec.paths, ["benchmark"]);
        assert!((1..=60).contains(&spec.run_seconds));
        assert!(spec.command.len() <= 32 && spec.command.iter().all(|c| c.len() <= 200));
        let mut names: Vec<&str> = Vec::new();
        for w in &spec.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(&w.name);
        }
        for m in &spec.end_to_end {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
            assert!(matches!(m.better.as_str(), "lower" | "higher"));
            assert!(well_formed(&m.unit, 16, "_/%.-"), "{}", m.unit);
            names.push(&m.name);
        }
        for m in &spec.per_layer {
            assert!(matches!(m.better.as_str(), "lower" | "higher"));
            assert!(well_formed(&m.unit, 16, "_/%.-"), "{}", m.unit);
            names.push(&m.name);
        }
        for n in &names {
            assert!(well_formed(n, 64, "_.-"), "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(include_str!("../../BENCHMARK.json").len() <= 64 << 10);
    }
}
