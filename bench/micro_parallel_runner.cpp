// Microbenchmark for benchkit::ParallelRunner: measures the JOB-lite
// workload across a scale-factor sweep (--scale-factors=1,4,16 by default;
// sf 16 is a 10M+-row database), checks byte-level determinism of the
// parallel path against the serial baseline, and reports the virtual-time
// work-stealing speedup per worker count. Emits one JSON document (stdout,
// or the file given as argv[1]) so CI can archive the numbers — see
// BENCH_parallel_runner.json at the repo root for a recorded run and
// docs/benchmarks.md for the schema and its gate.
//
// Two speedup notions appear side by side, on purpose:
//  - wall_ms measures the machine. On the single-core CI container every
//    worker count collapses to ~1.0x and that is all it can show.
//  - virtual_speedup is machine-independent: the engine's own deterministic
//    per-query virtual costs scheduled by benchkit::SimulateWorkStealing
//    (the exact policy of util::ThreadPool) on N ideal cores. This is what
//    tests/check_bench_gates.sh gates on (> 1.5x at 4 workers).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "benchkit/schedule_sim.h"

namespace {

using namespace lqolab;

bool SameMeasurements(const std::vector<benchkit::QueryMeasurement>& a,
                      const std::vector<benchkit::QueryMeasurement>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.query_id != y.query_id || x.joins != y.joins ||
        x.inference_ns != y.inference_ns || x.planning_ns != y.planning_ns ||
        x.execution_ns != y.execution_ns || x.timed_out != y.timed_out ||
        x.result_rows != y.result_rows ||
        x.run_execution_ns != y.run_execution_ns ||
        x.node_rows != y.node_rows) {
      return false;
    }
  }
  return true;
}

/// A worker's task is one query's full protocol replay: planning plus every
/// protocol run (the parallel runner's unit of scheduling).
std::vector<util::VirtualNanos> TaskCosts(
    const std::vector<benchkit::QueryMeasurement>& queries) {
  std::vector<util::VirtualNanos> costs;
  costs.reserve(queries.size());
  for (const auto& q : queries) {
    util::VirtualNanos cost = q.inference_ns + q.planning_ns;
    for (util::VirtualNanos run : q.run_execution_ns) cost += run;
    costs.push_back(cost);
  }
  return costs;
}

std::vector<double> ParseScaleFactors(int argc, char** argv) {
  std::vector<double> sfs;
  for (int i = 1; i < argc; ++i) {
    const char* prefix = "--scale-factors=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) != 0) continue;
    std::string list = argv[i] + std::strlen(prefix);
    size_t pos = 0;
    while (pos < list.size()) {
      size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      const double sf = std::atof(list.substr(pos, comma - pos).c_str());
      if (sf > 0.0) sfs.push_back(sf);
      pos = comma + 1;
    }
  }
  if (sfs.empty()) sfs = {1.0, 4.0, 16.0};
  return sfs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lqolab;
  using Clock = std::chrono::steady_clock;

  const std::vector<double> scale_factors = ParseScaleFactors(argc, argv);
  const std::vector<int32_t> worker_counts = {1, 2, 4, 8};
  benchkit::Protocol protocol;

  std::string json = "{\n";
  json += "  \"bench\": \"parallel_runner\",\n";
  json += "  \"protocol_runs\": " + std::to_string(protocol.runs) + ",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"scale_factor_curve\": [\n";

  bool all_deterministic = true;
  for (size_t si = 0; si < scale_factors.size(); ++si) {
    const double sf = scale_factors[si];
    // LQOLAB_SCALE still composes in for quick smoke runs of the sweep.
    engine::Database::Options options;
    options.profile =
        datagen::ScaleProfile::ForScaleFactor(sf * bench::EnvScale(1.0));
    options.seed = bench::kSeed;
    auto db = engine::Database::CreateImdb(options);
    int64_t total_rows = 0;
    for (const auto& table : db->context().tables()) {
      total_rows += table->row_count();
    }
    const auto workload = query::LoadWorkload("job", db->schema());
    std::fprintf(stderr, "sf %.3g: %lld rows, %zu queries\n", sf,
                 static_cast<long long>(total_rows), workload.size());

    // One real measurement at 4 workers drives everything: its per-query
    // virtual costs feed the schedule simulation (costs are identical at
    // every worker count — the determinism contract), its wall clock is the
    // honest single-machine number, and its steal counter shows the real
    // pool rebalancing. A serial re-measurement checks byte-identity except
    // at the largest scale factors, where it would double a minutes-long
    // run for a property the sf<=4 points already lock.
    benchkit::RunnerOptions runner_options;
    runner_options.seed = bench::kSeed;
    runner_options.parallelism = 4;
    auto start = Clock::now();
    benchkit::ParallelRunner runner(db.get(), runner_options);
    const auto parallel_result =
        benchkit::MeasureWorkload(&runner, nullptr, workload, protocol);
    const double wall_ms_p4 =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    const int64_t pool_steals = runner.steals();

    bool deterministic = true;
    double wall_ms_serial = -1.0;
    if (sf <= 4.0) {
      runner_options.parallelism = 1;
      start = Clock::now();
      const auto serial_result = benchkit::MeasureWorkload(
          db.get(), nullptr, workload, protocol, runner_options);
      wall_ms_serial =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      deterministic =
          SameMeasurements(serial_result.queries, parallel_result.queries);
      all_deterministic &= deterministic;
    }

    const std::vector<util::VirtualNanos> costs =
        TaskCosts(parallel_result.queries);
    util::VirtualNanos total_virtual_ns = 0;
    for (util::VirtualNanos cost : costs) total_virtual_ns += cost;

    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"scale_factor\": %.3g, \"total_rows\": %lld, "
                  "\"queries\": %zu,\n"
                  "     \"wall_ms_serial\": %.1f, \"wall_ms_p4\": %.1f, "
                  "\"deterministic\": %s, \"pool_steals\": %lld,\n"
                  "     \"total_virtual_ns\": %lld,\n"
                  "     \"parallelism_curve\": [\n",
                  sf, static_cast<long long>(total_rows), workload.size(),
                  wall_ms_serial, wall_ms_p4,
                  deterministic ? "true" : "false",
                  static_cast<long long>(pool_steals),
                  static_cast<long long>(total_virtual_ns));
    json += buffer;
    for (size_t wi = 0; wi < worker_counts.size(); ++wi) {
      const int32_t workers = worker_counts[wi];
      const benchkit::ScheduleResult sim =
          benchkit::SimulateWorkStealing(costs, workers);
      std::snprintf(buffer, sizeof(buffer),
                    "      {\"parallelism\": %d, "
                    "\"virtual_makespan_ns\": %lld, "
                    "\"virtual_speedup\": %.2f, \"sim_steals\": %lld}%s\n",
                    workers, static_cast<long long>(sim.makespan_ns),
                    sim.speedup(), static_cast<long long>(sim.steals),
                    wi + 1 < worker_counts.size() ? "," : "");
      json += buffer;
      std::fprintf(stderr,
                   "  sf %.3g p%d: virtual speedup %.2fx (%lld sim steals)\n",
                   sf, workers, sim.speedup(),
                   static_cast<long long>(sim.steals));
    }
    json += "     ]}";
    json += si + 1 < scale_factors.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  const char* out_path = argc > 1 && argv[1][0] != '-' ? argv[1] : nullptr;
  if (!bench::WriteDocument(out_path, json)) return 1;
  return all_deterministic ? 0 : 1;
}
