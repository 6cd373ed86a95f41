#!/usr/bin/env bash
# Checks that the workload files the benchmark in bench/layer_profile/ runs
# are byte copies of the engine's workloads/*.sql, so the two can never
# drift apart silently. Only reads the benchmark directory.
# Usage: check_workload_copies.sh [repo_root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

fail=0
for name in job_lite job_complex_lite tpch_lite; do
  if ! cmp "$root/workloads/$name.sql" \
      "$root/bench/layer_profile/workloads/$name.sql"; then
    echo "FAIL: workloads/$name.sql differs from its copy in" \
         "bench/layer_profile/workloads/"
    fail=1
  fi
done
exit $fail
