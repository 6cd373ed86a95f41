// Figure 5 (the headline experiment): end-to-end comparison of PostgreSQL
// (pglite) vs Neo, Bao, Balsa, LEON on the TEST sets of 9 train/test splits
// (3 samplers x 3 splits, shared across methods). Reports the paper's
// decomposition: inference+planning time and execution time, with 95% CIs
// and timeout counts. The paper finds pglite generally best, Bao
// competitive, Neo/Balsa behind, and LEON dominated by inference time.
//
// Environment knobs: LQOLAB_SCALE (default 0.25), LQOLAB_SPLITS (default 9).
// Flags: --trace <path> writes a JSONL trace (workload/query/episode/train
// records per measurement plus a final engine-metrics record; schema in
// docs/observability.md). --workload job|job_complex|tpch picks the query
// set (default job); job_complex loads workloads/job_complex_lite.sql over
// the same IMDB database, tpch loads workloads/tpch_lite.sql over the
// TPC-H-lite database.

#include <memory>

#include "bench_common.h"
#include "benchkit/parallel_runner.h"
#include "benchkit/splits.h"
#include "lqo/balsa.h"
#include "lqo/bao.h"
#include "lqo/leon.h"
#include "lqo/neo.h"

namespace {

using namespace lqolab;

std::unique_ptr<lqo::LearnedOptimizer> MakeMethod(const std::string& name,
                                                  uint64_t seed) {
  std::unique_ptr<lqo::LearnedOptimizer> method;
  if (name == "neo") {
    lqo::NeoOptimizer::Options options;
    options.iterations = 2;
    options.train_epochs = 12;
    options.seed = seed;
    method = std::make_unique<lqo::NeoOptimizer>(options);
  } else if (name == "bao") {
    lqo::BaoOptimizer::Options options;
    options.epochs = 3;
    options.train_epochs = 12;
    options.seed = seed;
    method = std::make_unique<lqo::BaoOptimizer>(options);
  } else if (name == "balsa") {
    lqo::BalsaOptimizer::Options options;
    options.pretrain_samples_per_query = 8;
    options.pretrain_epochs = 2;
    options.iterations = 3;
    options.train_epochs = 8;
    options.seed = seed;
    method = std::make_unique<lqo::BalsaOptimizer>(options);
  } else if (name == "leon") {
    lqo::LeonOptimizer::Options options;
    options.beam_masks = 10;
    options.topk_per_mask = 2;
    options.exec_per_query = 2;
    options.pair_epochs = 4;
    options.seed = seed;
    method = std::make_unique<lqo::LeonOptimizer>(options);
  }
  if (method != nullptr) {
    method->set_training_parallelism(bench::TrainParallelism());
  }
  return method;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Figure 5", "paper §8.2.1",
      "End-to-end performance of pglite vs Neo/Bao/Balsa/LEON on the test "
      "sets of 9 shared train/test splits.");
  bench::BenchTrace trace(argc, argv);

  const std::string workload_name = bench::WorkloadFlag(argc, argv);
  auto db = bench::MakeWorkloadDatabase(workload_name, 0.25);
  const auto workload =
      query::LoadWorkload(workload_name, db->schema());
  std::printf("workload: %s (%zu queries)\n\n", workload_name.c_str(),
              workload.size());
  auto splits = benchkit::PaperSplits(workload);
  const char* env_splits = std::getenv("LQOLAB_SPLITS");
  if (env_splits != nullptr) {
    const size_t limit = static_cast<size_t>(std::atoi(env_splits));
    if (limit > 0 && limit < splits.size()) splits.resize(limit);
  }

  benchkit::Protocol protocol;
  protocol.runs = 5;  // extra runs give the CI
  protocol.take = 2;

  util::TablePrinter table({"split", "method", "inference", "planning",
                            "execution", "+/-95%", "end-to-end", "timeouts"});
  const std::vector<std::string> methods = {"pglite", "bao", "neo", "balsa",
                                            "leon"};
  // Per-method sums over splits for the summary.
  std::map<std::string, util::VirtualNanos> total_e2e;
  std::map<std::string, util::VirtualNanos> total_exec;
  std::map<std::string, int> total_timeouts;

  for (const auto& split : splits) {
    const auto train = benchkit::SelectQueries(workload, split.train_indices);
    const auto test = benchkit::SelectQueries(workload, split.test_indices);
    for (const auto& method : methods) {
      benchkit::WorkloadMeasurement result;
      if (method == "pglite") {
        result = benchkit::MeasureWorkload(db.get(), nullptr, test, protocol,
                                           bench::MeasureOptions());
      } else {
        auto lqo = MakeMethod(method, bench::kSeed);
        lqo::TrainReport report = lqo->Train(train, db.get());
        result = benchkit::MeasureWorkload(db.get(), lqo.get(), test, protocol,
                                           bench::MeasureOptions());
        result.train_report = std::move(report);
      }
      result.split = split.name;
      trace.Write(result);
      table.AddRow(
          {split.name, method,
           util::FormatDuration(result.total_inference_ns()),
           util::FormatDuration(result.total_planning_ns()),
           util::FormatDuration(result.total_execution_ns()),
           util::FormatDuration(
               static_cast<util::VirtualNanos>(result.execution_ci95_ns())),
           util::FormatDuration(result.total_end_to_end_ns()),
           std::to_string(result.timeout_count())});
      total_e2e[method] += result.total_end_to_end_ns();
      total_exec[method] += result.total_execution_ns();
      total_timeouts[method] += result.timeout_count();
      std::printf(".");
      std::fflush(stdout);
    }
    std::printf(" %s done\n", split.name.c_str());
  }
  std::printf("\n");
  table.Print();

  std::printf("\nSummary over all splits (end-to-end / execution-only):\n");
  util::TablePrinter summary({"method", "end-to-end", "execution", "timeouts",
                              "vs pglite e2e"});
  const double pg_e2e = static_cast<double>(total_e2e["pglite"]);
  for (const auto& method : methods) {
    summary.AddRow({method, util::FormatDuration(total_e2e[method]),
                    util::FormatDuration(total_exec[method]),
                    std::to_string(total_timeouts[method]),
                    util::FormatFactor(static_cast<double>(total_e2e[method]) /
                                       pg_e2e)});
  }
  summary.Print();
  std::printf(
      "\npaper shape: pglite best end-to-end on most splits; Bao competitive "
      "(sometimes better on execution alone, never after planning); "
      "Neo/Balsa behind; LEON's inference time dominates everything.\n");
  trace.Finish();
  return 0;
}
