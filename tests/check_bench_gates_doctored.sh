#!/usr/bin/env bash
# Checks that check_bench_gates.sh rejects a fuzz soak with a discrepancy in
# a single arm: copies the committed BENCH_*.json into a temporary
# directory, sets the left_deep arm's "discrepancies" to 1 (the top-level
# total stays 0), and expects the gate to fail on exactly that.
# Usage: check_bench_gates_doctored.sh [repo_root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cp "$root"/BENCH_*.json "$tmp"/
sed -i '/"config": "left_deep"/s/"discrepancies": 0/"discrepancies": 1/' \
  "$tmp/BENCH_fuzz.json"
if ! grep -q '"config": "left_deep".*"discrepancies": 1' "$tmp/BENCH_fuzz.json"; then
  echo "FAIL: could not doctor the left_deep arm of BENCH_fuzz.json"
  exit 1
fi

out="$(bash "$root/tests/check_bench_gates.sh" "$tmp")"
status=$?
if [ "$status" -eq 0 ]; then
  echo "FAIL: check_bench_gates.sh passed a fuzz soak with a discrepancy"
  exit 1
fi
if ! echo "$out" | grep -q 'FAIL: fuzz soak recorded discrepancies'; then
  echo "FAIL: check_bench_gates.sh failed, but not on the doctored arm:"
  echo "$out"
  exit 1
fi
echo "ok: the doctored left_deep arm fails the gate"
