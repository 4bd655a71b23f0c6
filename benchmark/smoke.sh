#!/usr/bin/env bash
# Smoke test of the benchmark: build it, run every workload in --quick mode
# (counts ÷ 50 — seconds, not a measurement) with and without
# the trace, and check that each result line parses, names every metric of
# its mode and reports every op verified. Exits non-zero on the first
# failure. Run from anywhere; a CI job can call it as is.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"

for workload in emulator_design cholesky_mixed serve_cold serve_net_bulk serve_net_small; do
    for trace in 0 1; do
        result=$(cargo run --release --offline --quiet --manifest-path "$manifest" -- \
            --workload "$workload" --quick --trace "$trace" | tail -n 1)
        python3 - "$workload" "$trace" "$result" <<'PY'
import json, sys
workload, trace, line = sys.argv[1], sys.argv[2], sys.argv[3]
result = json.loads(line)
spec = json.load(open("BENCHMARK.json"))
want = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
assert result["correct"] is True, line
assert result["attempted"] >= 1 and result["failed"] == 0, line
assert list(result["metrics"]) == want, (list(result["metrics"]), want)
for name, m in result["metrics"].items():
    assert isinstance(m["value"], (int, float)) and isinstance(m["unit"], str), (name, m)
print(f"ok {workload} trace={trace}: {result['attempted']} ops verified, {len(want)} metrics")
PY
    done
done
echo "smoke: all workloads passed"
