#include "lqo/balsa.h"

#include <algorithm>
#include <memory>

#include "engine/exec_batch.h"
#include "exec/oracle.h"
#include "lqo/plan_search.h"
#include "util/check.h"

namespace lqolab::lqo {

using engine::Database;
using query::Query;
using util::VirtualNanos;

BalsaOptimizer::BalsaOptimizer() : BalsaOptimizer(Options()) {}

BalsaOptimizer::BalsaOptimizer(Options options) : options_(options) {}
BalsaOptimizer::~BalsaOptimizer() = default;

void BalsaOptimizer::EnsureModel(Database* db) {
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
  rng_state_ = options_.seed ^ 0xb5297a4dULL;
}

double BalsaOptimizer::Fit(const std::vector<Sample>& samples, int32_t epochs,
                           TrainReport* report) {
  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  double loss_sum = 0.0;
  for (int32_t epoch = 0; epoch < epochs; ++epoch) {
    for (size_t i = order.size(); i > 1; --i) {
      rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(order[i - 1], order[(rng_state_ >> 33) % i]);
    }
    for (size_t idx : order) {
      const Sample& sample = samples[idx];
      const std::vector<float> qenc = query_encoder_->Encode(sample.query);
      loss_sum +=
          net_->TrainRegression(qenc, sample.query, sample.plan,
                                *plan_encoder_, sample.target, adam_.get());
      ++report->nn_updates;
    }
  }
  return loss_sum;
}

SearchResult BalsaOptimizer::SearchPlan(const Query& q, Database* db,
                                        double epsilon) {
  const std::vector<float> qenc = query_encoder_->Encode(q);
  return GreedyBottomUpSearch(
      q, db->planner().cost_model(),
      [&](const optimizer::PhysicalPlan& candidate) {
        double score = net_->Score(qenc, q, candidate, *plan_encoder_);
        if (epsilon > 0.0) {
          rng_state_ =
              rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
          const double u =
              static_cast<double>(rng_state_ >> 11) * 0x1.0p-53;
          score += (u - 0.5) * epsilon;
        }
        return score;
      });
}

TrainReport BalsaOptimizer::Train(const std::vector<Query>& train_set,
                                  Database* db) {
  EnsureModel(db);
  TrainReport report;

  // Episode telemetry: the cost-model pretrain is episode 0, each
  // fine-tuning iteration is one episode after it.
  // --- Phase 1: pretrain on the cost model (no execution, no expertise).
  std::vector<Sample> pretrain;
  for (const Query& q : train_set) {
    for (int32_t s = 0; s < options_.pretrain_samples_per_query; ++s) {
      optimizer::PhysicalPlan plan =
          RandomPlan(q, db->planner().cost_model(), &rng_state_);
      const double cost = db->planner().EstimatePlanCost(q, plan);
      ++report.planner_calls;
      pretrain.push_back(
          {q, std::move(plan),
           LatencyToTarget(static_cast<VirtualNanos>(
               std::min(cost, 1.0e18)))});
    }
  }
  {
    const TrainReport before = report;
    report.RecordEpisode(before, 0,
                         Fit(pretrain, options_.pretrain_epochs, &report));
  }

  // --- Phase 2: on-policy fine-tuning with safe timeouts. A query's safe
  // timeout derives from its best latency in EARLIER candidate rounds only,
  // so a round is one batch: searches and timeouts are fixed serially
  // (preserving the rng_state_ draw sequence within the round), then the
  // round's plans execute.
  engine::BatchExecutor executor(db, options_.seed, training_parallelism());
  for (int32_t iter = 0; iter < options_.iterations; ++iter) {
    const TrainReport before = report;
    std::vector<Sample> fresh;
    for (int32_t c = 0; c <= options_.exploration_plans; ++c) {
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
              static_cast<double>(best->second) * options_.timeout_factor);
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
        fresh.push_back({train_set[i], std::move(plans[i]),
                         LatencyToTarget(runs[i].execution_ns)});
      }
    }
    // Balsa trains on the most recent data, not a replay buffer.
    report.RecordEpisode(before, iter + 1,
                         Fit(fresh, options_.train_epochs, &report));
  }
  report.training_time_ns = report.TrainingTimeNs();
  return report;
}

Prediction BalsaOptimizer::Plan(const Query& q, Database* db) {
  EnsureModel(db);
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
