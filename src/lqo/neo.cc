#include "lqo/neo.h"

#include <algorithm>
#include <memory>

#include "engine/exec_batch.h"
#include "lqo/plan_search.h"
#include "util/check.h"

namespace lqolab::lqo {

using engine::Database;
using query::Query;

NeoOptimizer::NeoOptimizer() : NeoOptimizer(Options()) {}

NeoOptimizer::NeoOptimizer(Options options) : options_(options) {}
NeoOptimizer::~NeoOptimizer() = default;

void NeoOptimizer::EnsureModel(Database* db) {
  if (net_ != nullptr) return;
  const auto& ctx = db->context();
  query_encoder_ = std::make_unique<QueryEncoder>(&ctx,
                                                  &db->planner().estimator());
  plan_encoder_ = std::make_unique<PlanEncoder>(
      &ctx, &db->planner().estimator(), PlanEncodingStyle::kWithTableIdentity);
  net_ = std::make_unique<TreeValueNet>(plan_encoder_->node_dim(),
                                        query_encoder_->dim(), options_.hidden,
                                        options_.seed);
  adam_ = std::make_unique<ml::Adam>(net_->Params(), options_.learning_rate);
  shuffle_state_ = options_.seed ^ 0x5deece66dULL;
}

double NeoOptimizer::FitReplay(int32_t epochs, TrainReport* report) {
  if (replay_.empty()) return 0.0;
  std::vector<size_t> order(replay_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  double loss_sum = 0.0;
  for (int32_t epoch = 0; epoch < epochs; ++epoch) {
    // Deterministic Fisher-Yates.
    for (size_t i = order.size(); i > 1; --i) {
      shuffle_state_ =
          shuffle_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(order[i - 1], order[(shuffle_state_ >> 33) % i]);
    }
    for (size_t idx : order) {
      const Sample& sample = replay_[idx];
      const std::vector<float> qenc = query_encoder_->Encode(sample.query);
      loss_sum +=
          net_->TrainRegression(qenc, sample.query, sample.plan,
                                *plan_encoder_, sample.target, adam_.get());
      ++report->nn_updates;
    }
  }
  return loss_sum;
}

SearchResult NeoOptimizer::SearchPlan(const Query& q, Database* db) {
  const std::vector<float> qenc = query_encoder_->Encode(q);
  return GreedyBottomUpSearch(
      q, db->planner().cost_model(),
      [&](const optimizer::PhysicalPlan& candidate) {
        return net_->Score(qenc, q, candidate, *plan_encoder_);
      });
}

double NeoOptimizer::HoldoutLoss(const std::vector<Sample>& holdout) {
  if (holdout.empty()) return 0.0;
  double total = 0.0;
  for (const Sample& sample : holdout) {
    const double predicted =
        net_->Score(query_encoder_->Encode(sample.query), sample.query,
                    sample.plan, *plan_encoder_);
    total += (predicted - sample.target) * (predicted - sample.target);
  }
  return total / static_cast<double>(holdout.size());
}

TrainReport NeoOptimizer::Train(const std::vector<Query>& train_set,
                                Database* db) {
  EnsureModel(db);
  TrainReport report;
  holdout_losses_.clear();
  iterations_run_ = 0;

  engine::BatchExecutor executor(db, options_.seed, training_parallelism());

  // A FIXED holdout (paper §5.1: comparable measurements require a fixed
  // validation set): every k-th training query, never trained on.
  std::vector<Query> effective_train;
  std::vector<Sample> holdout;
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
    for (size_t i = 0; i < runs.size(); ++i) {
      holdout.push_back({holdout_queries[i], std::move(holdout_plans[i]),
                         LatencyToTarget(runs[i].execution_ns)});
    }
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
    for (size_t i = 0; i < runs.size(); ++i) {
      replay_.push_back({effective_train[i], std::move(plans[i]),
                         LatencyToTarget(runs[i].execution_ns)});
    }
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
    const double loss_sum = FitReplay(options_.train_epochs, &report);
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
    // updated in FitReplay, so the searches of one iteration are mutually
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
    for (size_t i = 0; i < runs.size(); ++i) {
      replay_.push_back({effective_train[i], std::move(plans[i]),
                         LatencyToTarget(runs[i].execution_ns)});
      if (static_cast<int64_t>(replay_.size()) > options_.replay_capacity) {
        replay_.erase(replay_.begin(),
                      replay_.begin() +
                          (static_cast<long>(replay_.size()) -
                           options_.replay_capacity));
      }
    }
    report.RecordEpisode(before, iter + 1, loss_sum);
  }
  {
    const TrainReport before = report;
    report.RecordEpisode(before, iterations_run_ + 1,
                         FitReplay(options_.train_epochs, &report));
  }

  report.training_time_ns = report.TrainingTimeNs();
  return report;
}

Prediction NeoOptimizer::Plan(const Query& q, Database* db) {
  EnsureModel(db);
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
