// Figure 2: execution time vs number of joins for all 113 JOB queries, plus
// the regression analysis showing that the join count is a poor proxy for
// runtime (the paper reports a cross-validated R^2 of -0.11).

#include <algorithm>
#include <cmath>
#include <map>

#include "bench_common.h"
#include "benchkit/measurement.h"
#include "util/statistics.h"

int main() {
  using namespace lqolab;
  bench::PrintHeader("Figure 2", "paper §6.1",
                     "Execution time per number of joins for all JOB queries; "
                     "OLS + leave-one-out R^2 of joins -> time.");

  auto db = bench::MakeDatabase();
  const auto workload = query::LoadWorkload("job", db->schema());

  benchkit::Protocol protocol;  // 3 runs, take the 3rd (hot cache)
  std::vector<double> joins;
  std::vector<double> seconds;
  std::map<int32_t, std::vector<double>> by_joins;
  for (const auto& q : workload) {
    const auto m = benchkit::MeasureNative(db.get(), q, protocol);
    const double secs = static_cast<double>(m.execution_ns) /
                        static_cast<double>(util::kNanosPerSecond);
    joins.push_back(q.join_count());
    seconds.push_back(secs);
    by_joins[q.join_count()].push_back(secs);
  }

  // The scatter, aggregated per join count (the figure's x-axis).
  util::TablePrinter table({"joins", "queries", "min", "median", "max"});
  for (const auto& [j, times] : by_joins) {
    table.AddRow({std::to_string(j), std::to_string(times.size()),
                  util::FormatDuration(static_cast<util::VirtualNanos>(
                      util::Percentile(times, 0) * 1e9)),
                  util::FormatDuration(static_cast<util::VirtualNanos>(
                      util::Percentile(times, 50) * 1e9)),
                  util::FormatDuration(static_cast<util::VirtualNanos>(
                      util::Percentile(times, 100) * 1e9))});
  }
  table.Print();

  // Top-10 slowest queries (the tail the figure shows).
  std::vector<std::pair<double, std::string>> slowest;
  for (size_t i = 0; i < workload.size(); ++i) {
    slowest.emplace_back(seconds[i], workload[i].id);
  }
  std::sort(slowest.rbegin(), slowest.rend());
  std::printf("\nslowest queries: ");
  for (int i = 0; i < 10; ++i) {
    std::printf("%s (%.2fs)%s", slowest[static_cast<size_t>(i)].second.c_str(),
                slowest[static_cast<size_t>(i)].first, i < 9 ? ", " : "\n");
  }

  const util::OlsFit fit = util::OrdinaryLeastSquares(joins, seconds);
  const double loo_r2 = util::LeaveOneOutR2(joins, seconds);
  std::printf("\nOLS fit: time = %.3f * joins + %.3f (in-sample R^2 = %.3f)\n",
              fit.slope, fit.intercept, fit.r_squared);
  std::printf("leave-one-out R^2 = %.3f   (paper: -0.11)\n", loo_r2);
  std::printf("=> the number of joins is an irrelevant proxy for execution "
              "time%s\n",
              loo_r2 < 0.3 ? " [REPRODUCED]" : " [NOT reproduced]");
  return 0;
}
