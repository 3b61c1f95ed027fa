#!/usr/bin/env bash
# A/A noise check: the same binary measured twice must agree with itself.
#
#   benchmark/selfcheck.sh [RUNS]
#
# Builds the benchmark once, then makes two interleaved sets (A, B) of
# RUNS full runs (default 10, seeds 1..RUNS) of every workload and prints,
# for every end-to-end metric of every workload:
#
#   workload metric  set-A median  set-B median  relative difference
#   spread of A  spread of B (IQR/median)  bound  verdict
#
# The verdict is BREACH when B's median is worse than A's by more than the
# metric's bound in BENCHMARK.json, or when either set's spread exceeds it
# (setup_s carries only the median rule), as in the harness; "wide" marks
# a spread above a third of the bound. Exits non-zero on any breach.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
runs="${1:-10}"
manifest="$here/../BENCHMARK.json"
results="$here/out/selfcheck"
rm -rf "$results"
mkdir -p "$results"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/domino-benchmark"

seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$manifest")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$manifest")"

for i in $(seq 1 "$runs"); do
  for w in $workloads; do
    for set in A B; do
      echo "run $i/$runs $w set $set" >&2
      "$bin" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
        | tail -n 1 > "$results/$w.$set.$i.json"
    done
  done
done

python3 - "$manifest" "$results" "$runs" <<'PY'
import json, statistics, sys

manifest = json.load(open(sys.argv[1]))
results, runs = sys.argv[2], int(sys.argv[3])
breaches = 0
def spread(v):
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

print(f"{'workload':<13}{'metric':<26}{'A median':>14}{'B median':>14}"
      f"{'B vs A':>9}{'spread A':>10}{'spread B':>10}{'bound':>8}  verdict")
for w in (w["name"] for w in manifest["workloads"]):
    sets = {}
    for s in "AB":
        sets[s] = [json.load(open(f"{results}/{w}.{s}.{i}.json")) for i in range(1, runs + 1)]
        for r in sets[s]:
            if not r["correct"]:
                print(f"{w}: set {s} reported correct=false ({r['failed']} of {r['attempted']})")
                breaches += 1
    for m in manifest["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in sets["A"]]
        b = [r["metrics"][name]["value"] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        # Positive = B worse than A.
        worse = (mb - ma) / ma * (1 if m["better"] == "lower" else -1)
        sa, sb = spread(a), spread(b)
        gated = name != "setup_s"
        bad = worse > bound or (gated and max(sa, sb) > bound)
        wide = gated and max(sa, sb) > bound / 3
        breaches += bad
        print(f"{w:<13}{name:<26}{ma:>14.4f}{mb:>14.4f}{worse:>+9.2%}{sa:>10.2%}{sb:>10.2%}"
              f"{bound:>8.1%}  {'BREACH' if bad else 'wide' if wide else 'ok'}")
print(f"{breaches} breach(es)")
sys.exit(1 if breaches else 0)
PY
