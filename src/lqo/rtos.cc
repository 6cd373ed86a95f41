#include "lqo/rtos.h"

#include <limits>

#include "engine/exec_batch.h"
#include "lqo/plan_search.h"
#include "util/check.h"

namespace lqolab::lqo {

using engine::Database;
using optimizer::PhysicalPlan;
using query::AliasId;
using query::AliasMask;
using query::Query;

namespace {

/// Folds of the cross-validated holdout loss (Table 1).
constexpr int32_t kCvFolds = 3;

}  // namespace

RtosOptimizer::RtosOptimizer() : RtosOptimizer(Options()) {}
RtosOptimizer::RtosOptimizer(Options options)
    : options_(options),
      model_({.hidden = 48,
              .seed = options.seed,
              .stream_salt = 0x7f4a7c15ULL}) {}
RtosOptimizer::~RtosOptimizer() = default;

PhysicalPlan RtosOptimizer::PlanForOrder(
    const Query& q, Database* db,
    const std::vector<AliasId>& order) const {
  PhysicalPlan plan;
  const double cost =
      db->planner().CostJoinOrder(q, order, &plan, nullptr);
  LQOLAB_CHECK_LT(cost, optimizer::kImpossibleCost);
  return plan;
}

std::vector<AliasId> RtosOptimizer::SearchOrder(const Query& q, Database* db,
                                                int64_t* evals) {
  const std::vector<float> qenc = model_.EncodeQuery(q);
  std::vector<AliasId> order;
  AliasMask mask = 0;
  // First relation: the smallest estimated base (RTOS also starts from the
  // filtered relation).
  AliasId start = 0;
  double best_rows = std::numeric_limits<double>::infinity();
  for (AliasId a = 0; a < q.relation_count(); ++a) {
    const double rows = db->planner().estimator().EstimateBaseRows(q, a);
    if (rows < best_rows) {
      best_rows = rows;
      start = a;
    }
  }
  order.push_back(start);
  mask = query::MaskOf(start);
  while (static_cast<int32_t>(order.size()) < q.relation_count()) {
    AliasId best = -1;
    double best_score = std::numeric_limits<double>::infinity();
    for (AliasId a = 0; a < q.relation_count(); ++a) {
      if ((mask & query::MaskOf(a)) != 0 ||
          (q.AdjacencyMask(a) & mask) == 0) {
        continue;
      }
      std::vector<AliasId> candidate = order;
      candidate.push_back(a);
      // Score the engine-completed plan for this prefix (the value net
      // predicts final latency given the partial decision, Neo-style).
      PhysicalPlan partial;
      const double cost = db->planner().CostJoinOrder(
          q, ExtendGreedily(q, candidate), &partial, nullptr);
      (void)cost;
      const double score = model_.Score(qenc, q, partial);
      ++*evals;
      if (score < best_score) {
        best_score = score;
        best = a;
      }
    }
    LQOLAB_CHECK_GE(best, 0);
    order.push_back(best);
    mask |= query::MaskOf(best);
  }
  return order;
}

TrainReport RtosOptimizer::Train(const std::vector<Query>& train_set,
                                 Database* db) {
  model_.Bind(db);
  TrainReport report;
  engine::BatchExecutor executor(db, options_.seed, training_parallelism());
  // Executes one join order per training query and adds the runs to the
  // replay buffer.
  auto collect = [&](const std::vector<std::vector<AliasId>>& orders) {
    std::vector<PhysicalPlan> plans;
    plans.reserve(orders.size());
    for (size_t i = 0; i < orders.size(); ++i) {
      plans.push_back(PlanForOrder(train_set[i], db, orders[i]));
    }
    const std::vector<engine::QueryRun> runs =
        executor.Execute(train_set, plans);
    report.AddRuns(runs);
    ValueModel::AppendRuns(train_set, std::move(plans), runs, &replay_);
  };

  // Bootstrap orders from the native planner's plans (their leaf order):
  // episode 0, no fitting yet.
  {
    std::vector<std::vector<AliasId>> orders;
    orders.reserve(train_set.size());
    for (const Query& q : train_set) {
      const auto planned = db->PlanQuery(q);
      ++report.planner_calls;
      std::vector<AliasId> order;
      for (const auto& node : planned.plan.nodes) {
        if (node.type == optimizer::PlanNode::Type::kScan) {
          order.push_back(node.alias);
        }
      }
      // The leaf sequence of a plan is not always a valid left-deep order;
      // repair by greedy connectivity.
      orders.push_back(RepairOrder(q, order));
    }
    collect(orders);
    report.RecordEpisode(TrainReport{}, 0, 0.0);
  }

  for (int32_t iter = 0; iter < options_.iterations; ++iter) {
    const TrainReport before = report;
    const double loss_sum =
        model_.Fit(replay_, options_.train_epochs, &report);
    std::vector<std::vector<AliasId>> orders;
    orders.reserve(train_set.size());
    for (const Query& q : train_set) {
      int64_t evals = 0;
      orders.push_back(SearchOrder(q, db, &evals));
      report.nn_evals += evals;
    }
    collect(orders);
    report.RecordEpisode(before, iter + 1, loss_sum);
  }
  const TrainReport before = report;
  const double final_loss_sum =
      model_.Fit(replay_, options_.train_epochs, &report);

  // Table 1: RTOS measures final aggregated performance via
  // cross-validation. Compute a k-fold holdout loss over the replay data.
  double cv_total = 0.0;
  int32_t measured = 0;
  for (int32_t fold = 0; fold < kCvFolds; ++fold) {
    double fold_loss = 0.0;
    int32_t fold_count = 0;
    for (size_t i = static_cast<size_t>(fold); i < replay_.size();
         i += static_cast<size_t>(kCvFolds)) {
      const ValueModel::Sample& sample = replay_[i];
      const double predicted = model_.Score(
          model_.EncodeQuery(sample.query), sample.query, sample.plan);
      ++report.nn_evals;
      fold_loss += (predicted - sample.target) * (predicted - sample.target);
      ++fold_count;
    }
    if (fold_count > 0) {
      cv_total += fold_loss / fold_count;
      ++measured;
    }
  }
  last_cv_loss_ = measured > 0 ? cv_total / measured : 0.0;
  // The last episode: the final fit plus its cross-validation evaluations.
  report.RecordEpisode(before, options_.iterations + 1, final_loss_sum);

  report.training_time_ns = report.TrainingTimeNs();
  return report;
}

Prediction RtosOptimizer::Plan(const Query& q, Database* db) {
  model_.Bind(db);
  Prediction prediction;
  int64_t evals = 0;
  const std::vector<AliasId> order = SearchOrder(q, db, &evals);
  prediction.plan = PlanForOrder(q, db, order);
  prediction.nn_evals = evals;
  prediction.inference_ns = evals * timing::kNnEvalNs;
  return prediction;
}

EncodingSpec RtosOptimizer::encoding_spec() const {
  return {"RTOS",      "yes",  "filters", "cardinality", "FC + pooling",
          "-",         "-",    "yes",     "-",           "Regression",
          "Tree-LSTM", "Plan", "CV",      "-"};
}

}  // namespace lqolab::lqo
