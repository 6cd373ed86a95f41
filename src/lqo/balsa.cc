#include "lqo/balsa.h"

#include <algorithm>

#include "engine/exec_batch.h"
#include "exec/oracle.h"
#include "lqo/plan_search.h"
#include "util/check.h"

namespace lqolab::lqo {

using engine::Database;
using query::Query;
using util::VirtualNanos;

namespace {

/// Extra exploratory plans per query in each fine-tuning round.
constexpr int32_t kExplorationPlans = 1;
/// A query's safe timeout: this multiple of its best earlier latency.
constexpr double kTimeoutFactor = 2.0;

}  // namespace

BalsaOptimizer::BalsaOptimizer() : BalsaOptimizer(Options()) {}

BalsaOptimizer::BalsaOptimizer(Options options)
    : options_(options),
      model_({.hidden = 64,
              .seed = options.seed,
              .stream_salt = 0xb5297a4dULL}) {}
BalsaOptimizer::~BalsaOptimizer() = default;

SearchResult BalsaOptimizer::SearchPlan(const Query& q, Database* db,
                                        double epsilon) {
  const std::vector<float> qenc = model_.EncodeQuery(q);
  return GreedyBottomUpSearch(
      q, db->planner().cost_model(),
      [&](const optimizer::PhysicalPlan& candidate) {
        double score = model_.Score(qenc, q, candidate);
        if (epsilon > 0.0) score += (model_.stream().Uniform() - 0.5) * epsilon;
        return score;
      });
}

TrainReport BalsaOptimizer::Train(const std::vector<Query>& train_set,
                                  Database* db) {
  model_.Bind(db);
  TrainReport report;

  // Episode telemetry: the cost-model pretrain is episode 0, each
  // fine-tuning iteration is one episode after it.
  // --- Phase 1: pretrain on the cost model (no execution, no expertise).
  std::vector<ValueModel::Sample> pretrain;
  for (const Query& q : train_set) {
    for (int32_t s = 0; s < options_.pretrain_samples_per_query; ++s) {
      optimizer::PhysicalPlan plan =
          RandomPlan(q, db->planner().cost_model(), &model_.stream());
      const double cost = db->planner().EstimatePlanCost(q, plan);
      ++report.planner_calls;
      pretrain.push_back(
          {.query = q,
           .plan = std::move(plan),
           .target = LatencyToTarget(
               static_cast<VirtualNanos>(std::min(cost, 1.0e18)))});
    }
  }
  {
    const TrainReport before = report;
    report.RecordEpisode(
        before, 0, model_.Fit(pretrain, options_.pretrain_epochs, &report));
  }

  // --- Phase 2: on-policy fine-tuning with safe timeouts. A query's safe
  // timeout derives from its best latency in EARLIER candidate rounds only,
  // so a round is one batch: searches and timeouts are fixed serially
  // (preserving the training stream's draw sequence within the round), then the
  // round's plans execute.
  engine::BatchExecutor executor(db, options_.seed, training_parallelism());
  for (int32_t iter = 0; iter < options_.iterations; ++iter) {
    const TrainReport before = report;
    std::vector<ValueModel::Sample> fresh;
    for (int32_t c = 0; c <= kExplorationPlans; ++c) {
      const double epsilon = c == 0 ? 0.0 : 0.05;
      std::vector<optimizer::PhysicalPlan> plans;
      plans.reserve(train_set.size());
      for (const Query& q : train_set) {
        SearchResult search = SearchPlan(q, db, epsilon);
        report.nn_evals += search.evals;
        plans.push_back(std::move(search.plan));
      }
      std::vector<engine::PlanExec> batch;
      batch.reserve(train_set.size());
      for (size_t i = 0; i < train_set.size(); ++i) {
        VirtualNanos timeout = 0;
        auto best = best_latency_.find(exec::QueryFingerprint(train_set[i]));
        if (best != best_latency_.end()) {
          timeout = static_cast<VirtualNanos>(
              static_cast<double>(best->second) * kTimeoutFactor);
          timeout = std::max<VirtualNanos>(timeout, util::kNanosPerMilli);
        }
        batch.push_back({&train_set[i], &plans[i], timeout});
      }
      const std::vector<engine::QueryRun> runs = executor.Execute(batch);
      report.AddRuns(runs);
      for (size_t i = 0; i < runs.size(); ++i) {
        if (!runs[i].timed_out) {
          auto [it, inserted] = best_latency_.emplace(
              exec::QueryFingerprint(train_set[i]), runs[i].execution_ns);
          if (!inserted && runs[i].execution_ns < it->second) {
            it->second = runs[i].execution_ns;
          }
        }
      }
      ValueModel::AppendRuns(train_set, std::move(plans), runs, &fresh);
    }
    // Balsa trains on the most recent data, not a replay buffer.
    report.RecordEpisode(before, iter + 1,
                         model_.Fit(fresh, options_.train_epochs, &report));
  }
  report.training_time_ns = report.TrainingTimeNs();
  return report;
}

Prediction BalsaOptimizer::Plan(const Query& q, Database* db) {
  model_.Bind(db);
  SearchResult search = SearchPlan(q, db, 0.0);
  Prediction prediction;
  prediction.plan = std::move(search.plan);
  prediction.nn_evals = search.evals;
  prediction.inference_ns = search.evals * timing::kNnEvalNs;
  return prediction;
}

EncodingSpec BalsaOptimizer::encoding_spec() const {
  return {"Balsa",    "yes",  "cardinality", "cardinality", "stacking",
          "yes",      "yes",  "yes",         "-",           "Regression",
          "Tree-CNN", "Plan", "Static",      "-"};
}

}  // namespace lqolab::lqo
