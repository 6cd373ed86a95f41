#include "lqo/hybridqo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

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

/// A hint is the first kPrefixDepth relations of a join order.
constexpr int32_t kPrefixDepth = 3;
/// Candidate hints handed to the engine.
constexpr int32_t kTopPrefixes = 3;
constexpr double kUcbConstant = 1.2;

}  // namespace

HybridQoOptimizer::HybridQoOptimizer() : HybridQoOptimizer(Options()) {}
HybridQoOptimizer::HybridQoOptimizer(Options options)
    : options_(options),
      latency_model_({.hidden = 48,
                      .seed = options.seed,
                      .stream_salt = 0x27bb2ee6ULL}) {}
HybridQoOptimizer::~HybridQoOptimizer() = default;

std::vector<PhysicalPlan> HybridQoOptimizer::CandidatesFromMcts(
    const Query& q, Database* db, int64_t* cost_calls) {
  const int32_t depth =
      std::min<int32_t>(kPrefixDepth, q.relation_count());

  // MCTS node statistics keyed by the order prefix.
  struct NodeStats {
    double total_reward = 0.0;
    int32_t visits = 0;
  };
  std::map<std::vector<AliasId>, NodeStats> stats;
  TrainingStream& stream = latency_model_.stream();
  auto children_of = [&](const std::vector<AliasId>& prefix) {
    std::vector<AliasId> children;
    AliasMask mask = 0;
    for (AliasId a : prefix) mask |= query::MaskOf(a);
    for (AliasId a = 0; a < q.relation_count(); ++a) {
      if ((mask & query::MaskOf(a)) == 0 &&
          (mask == 0 || (q.AdjacencyMask(a) & mask) != 0)) {
        children.push_back(a);
      }
    }
    return children;
  };

  // Reward: negative log of the cost of the engine-completed prefix
  // (higher is better), normalized into roughly [0, 1].
  auto rollout_reward = [&](const std::vector<AliasId>& prefix) {
    const double cost = db->planner().CostJoinOrder(
        q, ExtendGreedily(q, prefix), nullptr, nullptr);
    ++*cost_calls;
    return 1.0 / (1.0 + std::log1p(std::max(0.0, cost) / 1e6));
  };

  for (int32_t iter = 0; iter < options_.mcts_iterations; ++iter) {
    // Selection/expansion down to `depth` using UCB over child prefixes.
    std::vector<AliasId> prefix;
    while (static_cast<int32_t>(prefix.size()) < depth) {
      const auto children = children_of(prefix);
      if (children.empty()) break;
      AliasId chosen = children[0];
      double best_ucb = -std::numeric_limits<double>::infinity();
      const double parent_visits =
          std::max(1.0, static_cast<double>(stats[prefix].visits));
      for (AliasId child : children) {
        std::vector<AliasId> next = prefix;
        next.push_back(child);
        const NodeStats& ns = stats[next];
        const double exploit =
            ns.visits > 0 ? ns.total_reward / ns.visits : 0.0;
        // Unvisited children first, tie-broken randomly.
        const double explore =
            ns.visits > 0 ? kUcbConstant *
                                std::sqrt(std::log(parent_visits) / ns.visits)
                          : 10.0 + stream.Uniform();
        if (exploit + explore > best_ucb) {
          best_ucb = exploit + explore;
          chosen = child;
        }
      }
      prefix.push_back(chosen);
    }
    // Simulation + backpropagation.
    const double reward = rollout_reward(prefix);
    for (size_t len = 0; len <= prefix.size(); ++len) {
      std::vector<AliasId> node(prefix.begin(),
                                prefix.begin() + static_cast<long>(len));
      NodeStats& ns = stats[node];
      ns.total_reward += reward;
      ++ns.visits;
    }
  }

  // Top prefixes by mean reward among depth-`depth` nodes.
  std::vector<std::pair<double, std::vector<AliasId>>> ranked;
  for (const auto& [prefix, ns] : stats) {
    if (static_cast<int32_t>(prefix.size()) != depth || ns.visits == 0) {
      continue;
    }
    ranked.emplace_back(ns.total_reward / ns.visits, prefix);
  }
  std::sort(ranked.rbegin(), ranked.rend());

  std::vector<PhysicalPlan> candidates;
  for (const auto& [reward, prefix] : ranked) {
    if (static_cast<int32_t>(candidates.size()) >= kTopPrefixes) break;
    PhysicalPlan plan;
    const double cost = db->planner().CostJoinOrder(
        q, ExtendGreedily(q, prefix), &plan, nullptr);
    ++*cost_calls;
    if (cost >= optimizer::kImpossibleCost) continue;
    candidates.push_back(std::move(plan));
  }
  LQOLAB_CHECK(!candidates.empty());
  return candidates;
}

TrainReport HybridQoOptimizer::Train(const std::vector<Query>& train_set,
                                     Database* db) {
  latency_model_.Bind(db);
  TrainReport report;
  engine::BatchExecutor executor(db, options_.seed, training_parallelism());
  for (int32_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const TrainReport before = report;
    // Cost-guided MCTS proposes candidates; execute the latency-net pick
    // (first epoch: the cost-best candidate) and learn its latency.
    std::vector<PhysicalPlan> chosen_plans;
    chosen_plans.reserve(train_set.size());
    for (const Query& q : train_set) {
      std::vector<PhysicalPlan> candidates =
          CandidatesFromMcts(q, db, &report.planner_calls);
      const std::vector<float> qenc = latency_model_.EncodeQuery(q);
      size_t chosen = 0;
      if (epoch > 0) {
        double best = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < candidates.size(); ++i) {
          const double score = latency_model_.Score(qenc, q, candidates[i]);
          ++report.nn_evals;
          if (score < best) {
            best = score;
            chosen = i;
          }
        }
      }
      chosen_plans.push_back(std::move(candidates[chosen]));
    }
    const std::vector<engine::QueryRun> runs =
        executor.Execute(train_set, chosen_plans);
    report.AddRuns(runs);
    ValueModel::AppendRuns(train_set, std::move(chosen_plans), runs,
                           &replay_);
    report.RecordEpisode(
        before, epoch,
        latency_model_.Fit(replay_, options_.train_epochs, &report));
  }
  report.training_time_ns = report.TrainingTimeNs();
  return report;
}

Prediction HybridQoOptimizer::Plan(const Query& q, Database* db) {
  latency_model_.Bind(db);
  Prediction prediction;
  int64_t cost_calls = 0;
  std::vector<PhysicalPlan> candidates =
      CandidatesFromMcts(q, db, &cost_calls);
  const std::vector<float> qenc = latency_model_.EncodeQuery(q);
  size_t chosen = 0;
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double score = latency_model_.Score(qenc, q, candidates[i]);
    ++prediction.nn_evals;
    if (score < best) {
      best = score;
      chosen = i;
    }
  }
  prediction.plan = std::move(candidates[chosen]);
  // Inference = MCTS cost rollouts + latency-net evaluations.
  prediction.inference_ns = cost_calls * 2'000'000 +  // 2 ms per rollout
                            prediction.nn_evals * timing::kNnEvalNs;
  return prediction;
}

EncodingSpec HybridQoOptimizer::encoding_spec() const {
  return {"HybridQO",  "yes",  "cardinality", "cardinality", "stacking + FC",
          "yes",       "yes",  "yes",         "yes",         "Regression",
          "Tree-LSTM", "Plan", "Static",      "-"};
}

}  // namespace lqolab::lqo
