#!/usr/bin/env bash
# Builds the layer_profile benchmark from this checkout's sources into
# .bench_build/layer_profile, then runs one workload:
#
#   bash bench/layer_profile/run.sh --workload <name> --seed <n> \
#       --seconds <s> --trace <0|1>
#
# --trace 1 writes the run's spans to
# .bench_build/layer_profile/traces/<workload>-seed<n>.jsonl and reports the
# per-layer metrics instead of the end-to-end ones. Build output goes to
# stderr; the last line of stdout is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/layer_profile"

cmake -S "$root/bench/layer_profile" -B "$build" \
  -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 >&2

args=()
workload=""
seed=42
trace=0
while [ $# -gt 0 ]; do
  if [ $# -lt 2 ]; then
    echo "run.sh: missing value for $1" >&2
    exit 2
  fi
  case "$1" in
    --trace) trace="$2" ;;
    --workload) workload="$2"; args+=("$1" "$2") ;;
    --seed) seed="$2"; args+=("$1" "$2") ;;
    *) args+=("$1" "$2") ;;
  esac
  shift 2
done

case "$trace" in
  0) ;;
  1)
    mkdir -p "$build/traces"
    args+=(--trace "$build/traces/$workload-seed$seed.jsonl")
    ;;
  *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac

exec "$build/layer_profile" "${args[@]}"
