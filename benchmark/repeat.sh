#!/usr/bin/env bash
# Runs the whole benchmark repeatedly and checks that its numbers repeat,
# the way the driver does:
#
#   benchmark/repeat.sh [RUNS=10] [SETS=2]
#
# Each set is RUNS untraced runs of every workload, each run with another
# seed. Per set, workload and end-to-end metric it prints the median and the
# spread (distance between the first and third quartile as a share of the
# median), and per pair of sets how much worse the later median is; it exits
# non-zero if a spread (except setup_s's) or a worsening exceeds the metric's
# bound in BENCHMARK.json. If a timing breaches, lengthen the window
# (run_seconds) or demote the metric to loadgen.*; do not widen a bound.
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-10}"
sets="${2:-2}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
mkdir -p benchmark/out
log=benchmark/out/repeat.jsonl
: > "$log"
seed=1
for set in $(seq 1 "$sets"); do
  for workload in $workloads; do
    for _ in $(seq 1 "$runs"); do
      result="$(benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
      echo "{\"set\":$set,\"workload\":\"$workload\",\"seed\":$seed,\"result\":$result}" >> "$log"
      echo "set $set $workload seed $seed done" >&2
      seed=$((seed + 1))
    done
  done
done

python3 - "$log" <<'EOF'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
breaches = 0
bad_runs = [r for r in rows if not r["result"]["correct"] or r["result"]["failed"]]
for r in bad_runs:
    print(f"INCORRECT set {r['set']} {r['workload']} seed {r['seed']}")
print(f"{'workload':12} {'metric':13} {'set':>3} {'median':>14} {'spread':>8} {'worse':>8} {'bound':>6}")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        before = None
        for s in sorted({r["set"] for r in rows}):
            values = [r["result"]["metrics"][name]["value"] for r in rows
                      if r["set"] == s and r["workload"] == w["name"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worse = 0.0
            if before is not None:
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
            flag = ""
            if (name != "setup_s" and spread > bound) or worse > bound:
                breaches += 1
                flag = "  BREACH"
            print(f"{w['name']:12} {name:13} {s:3d} {med:14.6g} {spread:8.4f} {worse:8.4f} {bound:6.3f}{flag}")
            before = med
sys.exit(1 if breaches or bad_runs else 0)
EOF
