// Train a Bao-style learned optimizer on one train/test split and compare
// it against the native pglite optimizer on the held-out queries — a
// miniature of the paper's Fig. 5 evaluation.
//
// Build & run:  cmake --build build && ./build/examples/train_and_compare

#include <algorithm>
#include <cstdio>
#include <memory>

#include "benchkit/parallel_runner.h"
#include "benchkit/splits.h"
#include "engine/database.h"
#include "lqo/bao.h"
#include "query/sql_workload.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

int main() {
  using namespace lqolab;

  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Medium().Scaled(0.25);
  options.seed = 42;
  auto db = engine::Database::CreateImdb(options);
  const auto workload = query::LoadWorkload("job", db->schema());

  // A "hard" base-query split: whole query families are held out, so the
  // model cannot reuse join structure it saw during training.
  const benchkit::Split split = benchkit::SampleSplit(
      workload, benchkit::SplitKind::kBaseQuery, 0.2, 7);
  const auto train = benchkit::SelectQueries(workload, split.train_indices);
  const auto test = benchkit::SelectQueries(workload, split.test_indices);
  std::printf("split: %zu train / %zu test queries\n", train.size(),
              test.size());

  // Train Bao (hint-set selection on top of the native optimizer). The
  // training episodes execute concurrently on worker replicas; the result
  // is identical for any worker count, including 1.
  lqo::BaoOptimizer bao;
  bao.set_training_parallelism(util::ThreadPool::DefaultParallelism());
  const lqo::TrainReport report = bao.Train(train, db.get());
  std::printf("bao trained: %lld plans executed, modeled training time %s\n",
              static_cast<long long>(report.plans_executed),
              util::FormatDuration(report.training_time_ns).c_str());

  // Evaluate both on the test set with the 3-run hot-cache protocol,
  // fanned across all cores (RunnerOptions{} = hardware_concurrency). One
  // runner serves both measurements.
  const benchkit::Protocol protocol;
  benchkit::ParallelRunner runner(db.get(), benchkit::RunnerOptions{});
  const auto native =
      benchkit::MeasureWorkload(&runner, nullptr, test, protocol);
  const auto learned =
      benchkit::MeasureWorkload(&runner, &bao, test, protocol);

  util::TablePrinter table(
      {"method", "inference+planning", "execution", "end-to-end", "timeouts"});
  for (const auto* m : {&native, &learned}) {
    table.AddRow({m->method,
                  util::FormatDuration(m->total_inference_ns() +
                                       m->total_planning_ns()),
                  util::FormatDuration(m->total_execution_ns()),
                  util::FormatDuration(m->total_end_to_end_ns()),
                  std::to_string(m->timeout_count())});
  }
  table.Print();

  // Per-query comparison for the five largest gaps.
  util::TablePrinter detail({"query", "pglite", "bao", "factor"});
  std::vector<std::pair<double, size_t>> gaps;
  for (size_t i = 0; i < native.queries.size(); ++i) {
    const double a = static_cast<double>(native.queries[i].execution_ns);
    const double b = static_cast<double>(learned.queries[i].execution_ns);
    gaps.emplace_back(std::max(a, b) / std::max(1.0, std::min(a, b)), i);
  }
  std::sort(gaps.rbegin(), gaps.rend());
  for (size_t g = 0; g < std::min<size_t>(5, gaps.size()); ++g) {
    const size_t i = gaps[g].second;
    detail.AddRow({native.queries[i].query_id,
                   util::FormatDuration(native.queries[i].execution_ns),
                   util::FormatDuration(learned.queries[i].execution_ns),
                   util::FormatDouble(gaps[g].first, 1) + "x"});
  }
  detail.Print();
  return 0;
}
