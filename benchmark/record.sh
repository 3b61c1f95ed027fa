#!/usr/bin/env bash
# Record one full run as the next point of the perf trajectory.
#
#   benchmark/record.sh <number> [seed]
#
# Runs every workload once untraced (end-to-end metrics) and once traced
# (per-layer metrics and budgets) and writes
# benchmark/history/BENCH_<number>.json: an environment block plus every
# metric, fact and budget line of both runs. One file per PR; compare
# structural columns (page reads, flushes per commit, bytes shipped)
# tightly and wall-clock loosely, by the bounds in BENCHMARK.json.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
number="${1:?usage: record.sh <number> [seed]}"
seed="${2:-1}"
manifest="$here/../BENCHMARK.json"
tmp="$here/out/record"
rm -rf "$tmp"
mkdir -p "$tmp" "$here/history"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/domino-benchmark"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$manifest")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$manifest")"

for w in $workloads; do
  for trace in 0 1; do
    echo "recording $w trace=$trace" >&2
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" > "$tmp/$w.$trace.txt"
  done
done

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
python3 - "$tmp" "$here/history/BENCH_$(printf '%04d' "$number").json" "$number" "$seed" "$seconds" "$commit" \
  "$(rustc --version)" "$(uname -r)" "$(nproc)" $workloads <<'PY'
import json, sys

tmp, target, number, seed, seconds, commit, rustc, kernel, cpus, *workloads = sys.argv[1:]
record = {
    "bench": int(number),
    "claim": None,
    "environment": {
        "cpus": int(cpus),
        "parent_commit": commit,
        "rustc": rustc,
        "kernel": kernel,
        "seed": int(seed),
        "run_seconds": int(seconds),
    },
    "workloads": {},
}
for w in workloads:
    entry = {}
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        lines = open(f"{tmp}/{w}.{trace}.txt").read().splitlines()
        result = json.loads(lines[-1])
        facts = dict(l.split(" ", 2)[1:] for l in lines if l.startswith("fact "))
        entry[key] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
            "facts": facts,
        }
        budget = [l.split(" ", 1)[1] for l in lines if l.startswith("budget ")]
        if budget:
            entry["budget"] = budget
    record["environment"].setdefault("fixture_fs", {})[w] = entry["end_to_end"]["facts"].get("fixture_fs")
    record["workloads"][w] = entry
json.dump(record, open(target, "w"), indent=1)
print(f"wrote {target}")
PY
