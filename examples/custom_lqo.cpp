// Implement your own learned query optimizer against the framework.
//
// The paper's benchmarking framework exists precisely so that NEW methods
// can be dropped in and compared under identical conditions (same database,
// same splits, same measurement protocol). This example implements a
// minimal "cost-corrector" LQO — it memorizes, per base-query family, how
// wrong the cost model was, and rescales candidate plan costs accordingly —
// and runs it through the same pipeline as the built-in methods.
//
// Build & run:  cmake --build build && ./build/examples/custom_lqo

#include <algorithm>
#include <cstdio>
#include <map>

#include "benchkit/parallel_runner.h"
#include "benchkit/splits.h"
#include "engine/database.h"
#include "lqo/interface.h"
#include "lqo/plan_search.h"
#include "query/sql_workload.h"
#include "util/table_printer.h"

namespace {

using namespace lqolab;

/// A deliberately simple LQO: execute each training query once, remember
/// the ratio between measured latency and estimated plan cost per template
/// family, and at inference time pick the greedy plan under the corrected
/// cost. Implements the same LearnedOptimizer interface as Neo/Bao/etc.
class CostCorrectorOptimizer : public lqo::LearnedOptimizer {
 public:
  std::string name() const override { return "cost_corrector"; }

  lqo::TrainReport Train(const std::vector<query::Query>& train_set,
                         engine::Database* db) override {
    lqo::TrainReport report;
    for (const auto& q : train_set) {
      const auto planned = db->PlanQuery(q);
      ++report.planner_calls;
      const auto run = db->ExecutePlan(q, planned.plan);
      ++report.plans_executed;
      report.execution_ns += run.execution_ns;
      const double estimated = std::max(1.0, planned.estimated_cost);
      const double ratio = static_cast<double>(run.execution_ns) / estimated;
      auto [it, inserted] = correction_.emplace(q.template_id, ratio);
      if (!inserted) it->second = 0.5 * it->second + 0.5 * ratio;
    }
    report.training_time_ns = report.TrainingTimeNs();
    return report;
  }

  lqo::Prediction Plan(const query::Query& q, engine::Database* db) override {
    // Greedy bottom-up search under the family-corrected cost.
    const double factor = [&] {
      auto it = correction_.find(q.template_id);
      return it != correction_.end() ? it->second : 1.0;
    }();
    int64_t cost_calls = 0;
    lqo::SearchResult search = lqo::GreedyBottomUpSearch(
        q, db->planner().cost_model(),
        [&](const optimizer::PhysicalPlan& candidate) {
          ++cost_calls;
          return factor * db->planner().EstimatePlanCost(q, candidate);
        });
    lqo::Prediction prediction;
    prediction.plan = std::move(search.plan);
    // This method evaluates the cost model instead of a neural network;
    // charge the same per-candidate accounting the framework uses.
    prediction.inference_ns = cost_calls * 50'000;  // 50 us per cost call
    return prediction;
  }

  lqo::EncodingSpec encoding_spec() const override {
    return {"CostCorrector", "-",    "-",     "-",     "-",
            "yes",           "yes",  "-",     "-",     "Memo",
            "none",          "Plan", "Static", "-"};
  }

 private:
  std::map<int32_t, double> correction_;  // template id -> latency/cost
};

}  // namespace

int main() {
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Medium().Scaled(0.25);
  options.seed = 42;
  auto db = engine::Database::CreateImdb(options);
  const auto workload = query::LoadWorkload("job", db->schema());

  // Evaluate the custom method across all three split-difficulty levels —
  // the framework treats it exactly like the built-in methods.
  util::TablePrinter table(
      {"split", "method", "execution", "end-to-end", "timeouts"});
  for (const auto kind :
       {benchkit::SplitKind::kLeaveOneOut, benchkit::SplitKind::kRandom,
        benchkit::SplitKind::kBaseQuery}) {
    const auto split = benchkit::SampleSplit(workload, kind, 0.2, 21);
    const auto train = benchkit::SelectQueries(workload, split.train_indices);
    const auto test = benchkit::SelectQueries(workload, split.test_indices);

    CostCorrectorOptimizer custom;
    custom.Train(train, db.get());

    const benchkit::Protocol protocol;
    const auto native = benchkit::MeasureWorkload(db.get(), nullptr, test,
                                                  protocol);
    const auto learned = benchkit::MeasureWorkload(db.get(), &custom, test,
                                                   protocol);
    for (const auto* m : {&native, &learned}) {
      table.AddRow({benchkit::SplitKindName(kind), m->method,
                    util::FormatDuration(m->total_execution_ns()),
                    util::FormatDuration(m->total_end_to_end_ns()),
                    std::to_string(m->timeout_count())});
    }
  }
  table.Print();
  std::printf(
      "\nThe custom method plugs into the identical pipeline as Neo/Bao/"
      "Balsa/LEON: implement lqo::LearnedOptimizer, train on a split, and "
      "measure with benchkit. That is the paper's reproducibility point.\n");
  return 0;
}
