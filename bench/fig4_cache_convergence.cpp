// Figure 4 + §7.3: hot/cold cache convergence. Every JOB query is executed
// 50 times in succession and in order (1a x50, 1b x50, ...) from a cold
// start; we report the mean normalized difference between the k-th and
// (k+1)-th execution. The paper measures -14.6% at k=1, -1.03% at k=2, and
// no trend afterwards, concluding that taking the 3rd execution is the
// sweet spot. A second section compares the paper's measurement-protocol
// alternatives (take-3rd vs averaging n runs).

#include <cmath>

#include "bench_common.h"
#include "util/statistics.h"

int main() {
  using namespace lqolab;
  bench::PrintHeader(
      "Figure 4", "paper §7.3",
      "Normalized execution-time difference between successive runs "
      "(50 consecutive executions per query, cold start).");

  auto db = bench::MakeDatabase();
  const auto workload = query::LoadWorkload("job", db->schema());
  db->DropCaches();

  constexpr int kRuns = 50;
  // per-query normalized diffs: diff[k] = (t_k - t_{k+1}) / t_1.
  std::vector<std::vector<double>> diffs(kRuns - 1);
  std::vector<std::vector<double>> run_times(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    const auto planned = db->PlanQuery(workload[i]);
    std::vector<double> times;
    times.reserve(kRuns);
    for (int r = 0; r < kRuns; ++r) {
      times.push_back(static_cast<double>(
          db->ExecutePlan(workload[i], planned.plan).execution_ns));
    }
    for (int k = 0; k + 1 < kRuns; ++k) {
      diffs[static_cast<size_t>(k)].push_back((times[static_cast<size_t>(k)] -
                                               times[static_cast<size_t>(k) + 1]) /
                                              times[0]);
    }
    run_times[i] = std::move(times);
  }

  util::TablePrinter table({"k", "mean diff (k -> k+1)", "paper"});
  for (int k = 0; k < 8; ++k) {
    const double mean = util::Mean(diffs[static_cast<size_t>(k)]);
    const char* paper = k == 0 ? "-14.6%" : (k == 1 ? "-1.03%" : "~0%");
    table.AddRow({std::to_string(k + 1),
                  util::FormatDouble(mean * 100.0, 2) + "%", paper});
  }
  table.Print();
  const double d1 = util::Mean(diffs[0]);
  const double d2 = util::Mean(diffs[1]);
  std::printf("\nshape check: drop(1->2)=%.1f%%, drop(2->3)=%.2f%%  %s\n",
              d1 * 100, d2 * 100,
              (d1 > 0.05 && d2 < d1 / 3 && d2 > -0.01)
                  ? "[REPRODUCED]"
                  : "[NOT reproduced]");

  // --- §7.3: protocol comparison -------------------------------------------
  std::printf("\nMeasurement-protocol comparison (paper §7.3):\n");
  // Reference latency: median of runs 10..50 (steady state).
  double take3_err = 0.0;
  double avg3_err = 0.0;
  double avg5_err = 0.0;
  double take3_cost = 0.0;
  double avg5_cost = 0.0;
  for (const auto& times : run_times) {
    std::vector<double> steady(times.begin() + 9, times.end());
    const double reference = util::Percentile(steady, 50);
    take3_err += std::fabs(times[2] - reference) / reference;
    avg3_err += std::fabs((times[0] + times[1] + times[2]) / 3 - reference) /
                reference;
    avg5_err +=
        std::fabs((times[0] + times[1] + times[2] + times[3] + times[4]) / 5 -
                  reference) /
        reference;
    take3_cost += times[0] + times[1] + times[2];
    avg5_cost += times[0] + times[1] + times[2] + times[3] + times[4];
  }
  const double n = static_cast<double>(run_times.size());
  util::TablePrinter protocol_table(
      {"protocol", "mean |error| vs steady state", "relative cost"});
  protocol_table.AddRow({"take 3rd of 3", util::FormatDouble(take3_err / n * 100, 2) + "%",
                         "1.00x"});
  protocol_table.AddRow({"average of 3", util::FormatDouble(avg3_err / n * 100, 2) + "%",
                         "1.00x"});
  protocol_table.AddRow({"average of 5", util::FormatDouble(avg5_err / n * 100, 2) + "%",
                         util::FormatDouble(avg5_cost / take3_cost, 2) + "x"});
  protocol_table.Print();
  std::printf("\npaper: the 3rd execution is ~40%% cheaper than five runs and "
              "more robust than averaging three (the first, cold run skews "
              "averages).\n");
  return 0;
}
