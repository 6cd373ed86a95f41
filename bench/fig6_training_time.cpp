// Figure 6: end-to-end training time vs combined workload runtime. The
// paper's counterintuitive finding: methods that spend MORE time training
// (Bao ~2h < Neo 20-40h < Balsa 40-85h < LEON 110-130h) reach WORSE
// results, explained by how many plans each method executes or estimates.
//
// One split per sampler is trained here (the full grid lives in fig5).
// Flags: --trace <path> writes a JSONL trace with per-episode training
// telemetry (loss, plans executed, time share) per method and split.

#include <memory>

#include "bench_common.h"
#include "benchkit/parallel_runner.h"
#include "benchkit/splits.h"
#include "lqo/balsa.h"
#include "lqo/bao.h"
#include "lqo/leon.h"
#include "lqo/neo.h"

int main(int argc, char** argv) {
  using namespace lqolab;
  bench::PrintHeader(
      "Figure 6", "paper §8.2.2",
      "End-to-end training time vs combined test-workload runtime; one dot "
      "per (method, split).");
  bench::BenchTrace trace(argc, argv);

  auto db = bench::MakeDatabase(0.25);
  const auto workload = query::LoadWorkload("job", db->schema());
  const auto all_splits = benchkit::PaperSplits(workload);
  // One split per sampler: indices 0, 3, 6.
  std::vector<benchkit::Split> splits = {all_splits[0], all_splits[3],
                                         all_splits[6]};

  benchkit::Protocol protocol;
  util::TablePrinter table({"method", "split", "training time",
                            "plans executed", "planner/cost calls",
                            "workload runtime (e2e)"});

  struct MethodTotals {
    util::VirtualNanos train = 0;
    util::VirtualNanos runtime = 0;
    int64_t plans = 0;
  };
  std::map<std::string, MethodTotals> totals;

  for (const auto& split : splits) {
    const auto train = benchkit::SelectQueries(workload, split.train_indices);
    const auto test = benchkit::SelectQueries(workload, split.test_indices);

    auto pg = benchkit::MeasureWorkload(db.get(), nullptr, test,
                                        protocol, bench::MeasureOptions());
    pg.split = split.name;
    trace.Write(pg);
    table.AddRow({"pglite", split.name, "0 (no training)", "0", "0",
                  util::FormatDuration(pg.total_end_to_end_ns())});

    std::vector<std::unique_ptr<lqo::LearnedOptimizer>> methods;
    {
      lqo::BaoOptimizer::Options bao;
      bao.epochs = 3;
      bao.train_epochs = 12;
      methods.push_back(std::make_unique<lqo::BaoOptimizer>(bao));
      lqo::NeoOptimizer::Options neo;
      neo.iterations = 2;
      neo.train_epochs = 12;
      methods.push_back(std::make_unique<lqo::NeoOptimizer>(neo));
      lqo::BalsaOptimizer::Options balsa;
      balsa.pretrain_samples_per_query = 8;
      balsa.pretrain_epochs = 2;
      balsa.iterations = 3;
      balsa.train_epochs = 8;
      methods.push_back(std::make_unique<lqo::BalsaOptimizer>(balsa));
      lqo::LeonOptimizer::Options leon;
      leon.beam_masks = 10;
      leon.topk_per_mask = 2;
      leon.exec_per_query = 2;
      leon.pair_epochs = 4;
      methods.push_back(std::make_unique<lqo::LeonOptimizer>(leon));
    }
    for (auto& method : methods) {
      method->set_training_parallelism(bench::TrainParallelism());
      const lqo::TrainReport report = method->Train(train, db.get());
      auto result = benchkit::MeasureWorkload(
          db.get(), method.get(), test, protocol, bench::MeasureOptions());
      result.split = split.name;
      result.train_report = report;
      trace.Write(result);
      table.AddRow({method->name(), split.name,
                    util::FormatDuration(report.training_time_ns),
                    std::to_string(report.plans_executed),
                    std::to_string(report.planner_calls),
                    util::FormatDuration(result.total_end_to_end_ns())});
      totals[method->name()].train += report.training_time_ns;
      totals[method->name()].runtime += result.total_end_to_end_ns();
      totals[method->name()].plans += report.plans_executed;
      std::printf(".");
      std::fflush(stdout);
    }
    std::printf(" %s done\n", split.name.c_str());
  }
  std::printf("\n");
  table.Print();

  std::printf("\nTraining-time ordering (paper: Bao << Neo < Balsa < LEON):\n");
  util::TablePrinter order({"method", "total training time",
                            "total plans executed", "total runtime"});
  for (const char* name : {"bao", "neo", "balsa", "leon"}) {
    order.AddRow({name, util::FormatDuration(totals[name].train),
                  std::to_string(totals[name].plans),
                  util::FormatDuration(totals[name].runtime)});
  }
  order.Print();
  const bool reproduced = totals["bao"].train < totals["neo"].train &&
                          totals["neo"].train < totals["balsa"].train &&
                          totals["balsa"].train < totals["leon"].train;
  std::printf("\nmore training time => not better results%s\n",
              reproduced ? " [ordering REPRODUCED]" : " [ordering differs]");
  trace.Finish();
  return 0;
}
