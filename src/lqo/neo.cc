#include "lqo/neo.h"

#include <algorithm>

#include "engine/exec_batch.h"
#include "lqo/plan_search.h"
#include "util/check.h"

namespace lqolab::lqo {

using engine::Database;
using query::Query;

namespace {

/// Executed plans kept for refits; the oldest are dropped first.
constexpr int64_t kReplayCapacity = 4000;

}  // namespace

NeoOptimizer::NeoOptimizer() : NeoOptimizer(Options()) {}

NeoOptimizer::NeoOptimizer(Options options)
    : options_(options),
      model_({.hidden = 64,
              .seed = options.seed,
              .stream_salt = 0x5deece66dULL}) {}
NeoOptimizer::~NeoOptimizer() = default;

SearchResult NeoOptimizer::SearchPlan(const Query& q, Database* db) {
  const std::vector<float> qenc = model_.EncodeQuery(q);
  return GreedyBottomUpSearch(
      q, db->planner().cost_model(),
      [&](const optimizer::PhysicalPlan& candidate) {
        return model_.Score(qenc, q, candidate);
      });
}

double NeoOptimizer::HoldoutLoss(
    const std::vector<ValueModel::Sample>& holdout) {
  if (holdout.empty()) return 0.0;
  double total = 0.0;
  for (const ValueModel::Sample& sample : holdout) {
    const double predicted = model_.Score(model_.EncodeQuery(sample.query),
                                          sample.query, sample.plan);
    total += (predicted - sample.target) * (predicted - sample.target);
  }
  return total / static_cast<double>(holdout.size());
}

TrainReport NeoOptimizer::Train(const std::vector<Query>& train_set,
                                Database* db) {
  model_.Bind(db);
  TrainReport report;
  holdout_losses_.clear();
  iterations_run_ = 0;

  engine::BatchExecutor executor(db, options_.seed, training_parallelism());

  // A FIXED holdout (paper §5.1: comparable measurements require a fixed
  // validation set): every k-th training query, never trained on.
  std::vector<Query> effective_train;
  std::vector<ValueModel::Sample> holdout;
  const int32_t holdout_every =
      options_.holdout_fraction > 0.0
          ? std::max<int32_t>(2, static_cast<int32_t>(
                                     1.0 / options_.holdout_fraction))
          : 0;
  std::vector<Query> holdout_queries;
  std::vector<optimizer::PhysicalPlan> holdout_plans;
  for (size_t i = 0; i < train_set.size(); ++i) {
    const Query& q = train_set[i];
    if (holdout_every > 0 &&
        static_cast<int32_t>(i) % holdout_every == holdout_every - 1) {
      holdout_queries.push_back(q);
      holdout_plans.push_back(db->PlanQuery(q).plan);
      ++report.planner_calls;
    } else {
      effective_train.push_back(q);
    }
  }
  {
    const std::vector<engine::QueryRun> runs =
        executor.Execute(holdout_queries, holdout_plans);
    report.AddRuns(runs);
    ValueModel::AppendRuns(holdout_queries, std::move(holdout_plans), runs,
                           &holdout);
  }

  // Bootstrap with the native optimizer's plans (expert demonstrations).
  {
    std::vector<optimizer::PhysicalPlan> plans;
    plans.reserve(effective_train.size());
    for (const Query& q : effective_train) {
      plans.push_back(db->PlanQuery(q).plan);
      ++report.planner_calls;
    }
    const std::vector<engine::QueryRun> runs =
        executor.Execute(effective_train, plans);
    report.AddRuns(runs);
    ValueModel::AppendRuns(effective_train, std::move(plans), runs, &replay_);
  }

  // The bootstrap above (holdout + expert-demonstration executions) is
  // episode 0 — no fitting has happened yet, so its loss is 0 — keeping
  // the invariant that episode deltas partition the report totals.
  report.RecordEpisode(TrainReport{}, 0, 0.0);

  double best_holdout = 1e30;
  int32_t worse_streak = 0;
  for (int32_t iter = 0; iter < options_.iterations; ++iter) {
    ++iterations_run_;
    const TrainReport before = report;
    const double loss_sum =
        model_.Fit(replay_, options_.train_epochs, &report);
    if (!holdout.empty()) {
      const double loss = HoldoutLoss(holdout);
      report.nn_evals += static_cast<int64_t>(holdout.size());
      holdout_losses_.push_back(loss);
      if (loss < best_holdout) {
        best_holdout = loss;
        worse_streak = 0;
      } else if (++worse_streak >= options_.patience) {
        report.RecordEpisode(before, iter + 1, loss_sum);
        break;  // early stopping on the fixed holdout
      }
    }
    // On-policy collection: plan with the current network (the net is only
    // updated by its fits, so the searches of one iteration are mutually
    // independent), execute the batch, learn.
    std::vector<optimizer::PhysicalPlan> plans;
    plans.reserve(effective_train.size());
    for (const Query& q : effective_train) {
      SearchResult search = SearchPlan(q, db);
      report.nn_evals += search.evals;
      plans.push_back(std::move(search.plan));
    }
    const std::vector<engine::QueryRun> runs =
        executor.Execute(effective_train, plans);
    report.AddRuns(runs);
    ValueModel::AppendRuns(effective_train, std::move(plans), runs, &replay_);
    if (static_cast<int64_t>(replay_.size()) > kReplayCapacity) {
      replay_.erase(replay_.begin(),
                    replay_.begin() + (static_cast<long>(replay_.size()) -
                                       kReplayCapacity));
    }
    report.RecordEpisode(before, iter + 1, loss_sum);
  }
  {
    const TrainReport before = report;
    report.RecordEpisode(before, iterations_run_ + 1,
                         model_.Fit(replay_, options_.train_epochs, &report));
  }

  report.training_time_ns = report.TrainingTimeNs();
  return report;
}

Prediction NeoOptimizer::Plan(const Query& q, Database* db) {
  model_.Bind(db);
  SearchResult search = SearchPlan(q, db);
  Prediction prediction;
  prediction.plan = std::move(search.plan);
  prediction.nn_evals = search.evals;
  prediction.inference_ns = search.evals * timing::kNnEvalNs;
  return prediction;
}

EncodingSpec NeoOptimizer::encoding_spec() const {
  return {"Neo",       "yes",      "cardinality", "word2vec",  "stacking",
          "yes",       "yes",      "yes",         "-",         "Regression",
          "Tree-CNN",  "Plan",     "Static",      "-"};
}

}  // namespace lqolab::lqo
