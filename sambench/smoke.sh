#!/usr/bin/env bash
# Smoke test: every workload for one second, untraced and traced (at least
# two rounds each). Asserts that no query failed and that every metric
# BENCHMARK.json names was printed, with its unit. Run from anywhere; takes
# under a minute after the build.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path sambench/Cargo.toml
out=$(mktemp)
trap 'rm -f "$out"' EXIT

# All six workloads of the suite; BENCHMARK.json gates five of them (see the README).
workloads="medium-fast-serial medium-fast-threads medium-tiled small-cycle small-cold-compile serve-warm-zipf"
python3 -c 'import json, sys; gated = {w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]}; assert gated <= set(sys.argv[1:]), gated' $workloads
for workload in $workloads; do
  for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path sambench/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 1 --trace "$trace" >"$out"
    python3 - "$out" "$workload" "$trace" <<'PY'
import json, sys
path, workload, trace = sys.argv[1:]
lines = open(path).read().splitlines()
printed = {line.split()[0] for line in lines if line and not line.startswith(("#", "{"))}
result = json.loads(lines[-1])
assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines[-1][:200]
wanted = json.load(open("BENCHMARK.json"))["end_to_end" if trace == "0" else "per_layer"]
for metric in wanted:
    name = metric["name"]
    assert name in printed, f"{workload}: {name} was not printed"
    assert result["metrics"][name]["unit"] == metric["unit"], f"{workload}: unit of {name}"
assert len(result["metrics"]) == len(wanted), f"{workload}: metrics BENCHMARK.json does not name"
if trace == "0":
    assert "failed_frac" in printed
print(f"ok {workload} trace={trace}: {len(wanted)} metrics, {result['attempted']} queries, 0 failed")
PY
  done
done
