// Figure 9 / §8.5: ablation of the genetic query optimizer. With GEQO off,
// queries at or above the threshold (12 FROM items) are planned by
// exhaustive DP instead. The paper finds a handful of significant deltas in
// both directions (disabling GEQO slows 24b down 9.9x yet speeds 30a up
// 1.6x) and concludes pglite should run at full capacity.

#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "benchkit/measurement.h"
#include "util/statistics.h"

int main() {
  using namespace lqolab;
  bench::PrintHeader(
      "Figure 9", "paper §8.5",
      "pglite execution times with GEQO enabled vs disabled (exhaustive DP "
      "for large queries); deltas above the report threshold.");

  auto db = bench::MakeDatabase();
  const auto workload = query::LoadWorkload("job", db->schema());

  benchkit::Protocol protocol;
  protocol.runs = 6;
  protocol.take = 2;

  auto measure_all = [&](const engine::DbConfig& config) {
    db->SetConfig(config);
    db->DropCaches();
    std::vector<benchkit::QueryMeasurement> measurements;
    for (const auto& q : workload) {
      measurements.push_back(benchkit::MeasureNative(db.get(), q, protocol));
    }
    return measurements;
  };

  const auto with_geqo = measure_all(engine::DbConfig::OurFramework());
  engine::DbConfig no_geqo = engine::DbConfig::OurFramework();
  no_geqo.geqo = false;
  const auto without_geqo = measure_all(no_geqo);

  util::VirtualNanos total = 0;
  for (const auto& m : with_geqo) total += m.execution_ns;
  const util::VirtualNanos threshold = std::max<util::VirtualNanos>(
      total / 1000, util::kNanosPerMilli);

  util::TablePrinter table({"query", "joins", "geqo on", "geqo off",
                            "disable effect", "significant", "planning on",
                            "planning off"});
  int significant = 0;
  int reported = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    const auto& on = with_geqo[i];
    const auto& off = without_geqo[i];
    if (std::llabs(on.execution_ns - off.execution_ns) < threshold) continue;
    ++reported;
    std::vector<double> runs_on;
    std::vector<double> runs_off;
    for (size_t r = 2; r < on.run_execution_ns.size(); ++r) {
      runs_on.push_back(static_cast<double>(on.run_execution_ns[r]));
      runs_off.push_back(static_cast<double>(off.run_execution_ns[r]));
    }
    const auto sig = util::WelchTTest(runs_on, runs_off);
    if (sig.significant) ++significant;
    const double factor = static_cast<double>(off.execution_ns) /
                          static_cast<double>(std::max<util::VirtualNanos>(
                              1, on.execution_ns));
    table.AddRow({on.query_id, std::to_string(workload[i].join_count()),
                  util::FormatDuration(on.execution_ns),
                  util::FormatDuration(off.execution_ns),
                  factor < 1.0
                      ? util::FormatFactor(1.0 / factor) + " faster"
                      : util::FormatFactor(factor) + " slower",
                  sig.significant ? "yes" : "no",
                  util::FormatDuration(on.planning_ns),
                  util::FormatDuration(off.planning_ns)});
  }
  table.Print();

  // Planning-time effect: exhaustive DP on >= 12-relation queries costs
  // far more planning time than GEQO.
  util::VirtualNanos plan_on = 0;
  util::VirtualNanos plan_off = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    if (workload[i].relation_count() < 12) continue;
    plan_on += with_geqo[i].planning_ns;
    plan_off += without_geqo[i].planning_ns;
  }
  std::printf("\n%d of %d reported deltas are statistically significant.\n",
              significant, reported);
  std::printf("planning time on >=12-relation queries: GEQO %s vs "
              "exhaustive DP %s\n",
              util::FormatDuration(plan_on).c_str(),
              util::FormatDuration(plan_off).c_str());
  std::printf("\npaper shape: GEQO matters for a handful of queries in both "
              "directions; when the LQO merely guides the optimizer, pglite "
              "should run at full capacity (GEQO on).\n");
  return 0;
}
