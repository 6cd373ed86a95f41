#!/usr/bin/env bash
# Runs two full sets of the layer_profile workloads and checks that the
# benchmark agrees with itself within the bounds in BENCHMARK.json:
#
#   bash bench/layer_profile/check_stability.sh [--runs N] [--seconds S]
#       [--out FILE] [workload ...]
#
# Each set runs every workload N times (default 10), with seeds 1..N. The
# two sets alternate which one runs first at each seed. For every
# end-to-end metric and workload it reports each set's median and its
# spread (interquartile range over median), and it fails when
#   - the two medians differ by more than the metric's bound, or
#   - a spread exceeds the bound (setup_s excepted, whose spread is
#     reported only).
# It then makes one traced run per workload at seed 42 for the per-layer
# summary. With --out it writes everything, plus nproc and the commit, as
# JSON (bench/layer_profile/baseline.json is such a file).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
runs=10
seconds=""
out=""
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
config="$root/BENCHMARK.json"
if [ -z "$seconds" ]; then
  seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$config")"
fi
if [ ${#workloads[@]} -eq 0 ]; then
  read -r -a workloads <<<"$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$config")"
fi

results="$root/.bench_build/layer_profile/stability.tsv"
mkdir -p "$(dirname "$results")"
: >"$results"

run() {  # run <set> <workload> <seed> <trace>
  local line
  if ! line="$(bash "$root/bench/layer_profile/run.sh" --workload "$2" \
      --seed "$3" --seconds "$seconds" --trace "$4" | tail -n 1)"; then
    echo "check_stability: $2 seed $3 failed: $line" >&2
    exit 1
  fi
  printf '%s\t%s\t%s\t%s\n' "$1" "$2" "$3" "$line" >>"$results"
  echo "$1 $2 seed $3: $line" >&2
}

for seed in $(seq 1 "$runs"); do
  for w in "${workloads[@]}"; do
    if [ $((seed % 2)) -eq 1 ]; then
      run A "$w" "$seed" 0
      run B "$w" "$seed" 0
    else
      run B "$w" "$seed" 0
      run A "$w" "$seed" 0
    fi
  done
done
for w in "${workloads[@]}"; do
  run traced "$w" 42 1
done

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
python3 - "$config" "$results" "$out" "$(nproc)" "$commit" "$seconds" "$runs" <<'EOF'
import json
import statistics
import sys

config_path, results_path, out_path, nproc, commit, seconds, runs = sys.argv[1:]
config = json.load(open(config_path))
bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
units = {m["name"]: m["unit"] for m in config["end_to_end"]}

sets = {"A": {}, "B": {}}
traced = {}
for line in open(results_path):
    label, workload, seed, result = line.rstrip("\n").split("\t", 3)
    result = json.loads(result)
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{label} {workload} seed {seed}: wrong answers")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if label == "traced":
        traced[workload] = metrics
        continue
    per_metric = sets[label].setdefault(workload, {})
    for name, value in metrics.items():
        per_metric.setdefault(name, []).append(value)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


ok = True
summary = {}
print(f"{'workload':<12} {'metric':<16} {'median A':>12} {'median B':>12}"
      f" {'diff':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}")
for workload in sets["A"]:
    for name, bound in bounds.items():
        a = sets["A"][workload][name]
        b = sets["B"][workload][name]
        med_a, med_b = statistics.median(a), statistics.median(b)
        diff = (med_b - med_a) / med_a
        spreads = (spread(a), spread(b)) if len(a) >= 2 else (0.0, 0.0)
        bad = abs(diff) > bound or (
            name != "setup_s" and max(spreads) > bound)
        ok &= not bad
        summary.setdefault(workload, {})[name] = {
            "unit": units[name], "median_a": med_a, "median_b": med_b,
            "diff": diff, "spread_a": spreads[0], "spread_b": spreads[1],
            "bound": bound}
        flag = "FAIL" if bad else (
            "wide" if max(spreads) > bound / 3 else "")
        print(f"{workload:<12} {name:<16} {med_a:12.4f} {med_b:12.4f}"
              f" {diff:+7.2%} {spreads[0]:9.2%} {spreads[1]:9.2%}"
              f" {bound:6.2f} {flag}")

if out_path:
    with open(out_path, "w") as f:
        json.dump({"commit": commit, "nproc": int(nproc),
                   "run_seconds": float(seconds),
                   "seeds": list(range(1, int(runs) + 1)),
                   "summary": summary, "sets": sets, "traced_seed42": traced},
                  f, indent=1, sort_keys=True)
        f.write("\n")
print("stable" if ok else "UNSTABLE: a metric moved by more than its bound")
sys.exit(0 if ok else 1)
EOF
