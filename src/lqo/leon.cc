#include "lqo/leon.h"

#include <algorithm>
#include <bit>
#include <map>

#include "engine/exec_batch.h"
#include "lqo/plan_search.h"
#include "util/check.h"

namespace lqolab::lqo {

using engine::Database;
using optimizer::JoinAlgo;
using optimizer::PhysicalPlan;
using optimizer::ScanType;
using query::AliasId;
using query::AliasMask;
using query::Query;
using util::VirtualNanos;

LeonOptimizer::LeonOptimizer() : LeonOptimizer(Options()) {}

namespace {

// LEON draws no random numbers, so its models' streams go unused.
ValueModel::Spec LeonSpec(uint64_t seed) {
  return {.output = ValueModel::Output::kPairwise, .hidden = 48, .seed = seed};
}

}  // namespace

LeonOptimizer::LeonOptimizer(Options options)
    : options_(options),
      model_a_(LeonSpec(options.seed)),
      model_b_(LeonSpec(options.seed ^ 0xdeadbeefULL)) {}
LeonOptimizer::~LeonOptimizer() = default;

std::vector<LeonOptimizer::Candidate> LeonOptimizer::Enumerate(
    const Query& q, Database* db, int64_t* cost_calls, int64_t* nn_evals) {
  const optimizer::Planner& planner = db->planner();
  const optimizer::CostModel& cm = planner.cost_model();
  const std::vector<float> qenc = model_a_.EncodeQuery(q);

  // Per-subset top-k candidate lists, beamed per level.
  std::map<AliasMask, std::vector<Candidate>> level;
  for (AliasId a = 0; a < q.relation_count(); ++a) {
    const optimizer::ScanChoice scan = cm.BestScan(q, a);
    Candidate c;
    c.plan.AddScan(a, scan.type, scan.index_column);
    c.score = LatencyToTarget(static_cast<VirtualNanos>(scan.cost));
    ++*cost_calls;
    level[query::MaskOf(a)].push_back(std::move(c));
  }

  auto net_adjust = [&](Candidate* c) {
    const double sa = model_a_.Score(qenc, q, c->plan);
    const double sb = model_b_.Score(qenc, q, c->plan);
    *nn_evals += 2;
    c->uncertainty = std::abs(sa - sb);
    c->score += 0.5 * (sa + sb) * 0.5;  // learned correction, damped
  };

  for (int32_t size = 1; size < q.relation_count(); ++size) {
    std::map<AliasMask, std::vector<Candidate>> next;
    for (const auto& [mask, candidates] : level) {
      for (AliasId a = 0; a < q.relation_count(); ++a) {
        const AliasMask bit = query::MaskOf(a);
        if ((mask & bit) != 0 || (q.AdjacencyMask(a) & mask) == 0) continue;
        for (const Candidate& base : candidates) {
          // Join algorithms for extending by relation `a`.
          const optimizer::ScanChoice scan = cm.BestScan(q, a);
          for (JoinAlgo algo :
               {JoinAlgo::kHash, JoinAlgo::kMerge, JoinAlgo::kNestLoop}) {
            PhysicalPlan leaf;
            leaf.AddScan(a, scan.type, scan.index_column);
            Candidate c;
            c.plan = CombinePlans(base.plan, leaf, algo);
            const double cost = planner.EstimatePlanCost(q, c.plan);
            ++*cost_calls;
            if (cost >= optimizer::kImpossibleCost) continue;
            c.score = LatencyToTarget(static_cast<VirtualNanos>(
                std::min(cost, 1.0e18)));
            next[mask | bit].push_back(std::move(c));
          }
          catalog::ColumnId probe_column = catalog::kInvalidColumn;
          if (cm.CanIndexNlj(q, mask, a, &probe_column)) {
            PhysicalPlan leaf;
            leaf.AddScan(a, ScanType::kIndex, probe_column);
            Candidate c;
            c.plan = CombinePlans(base.plan, leaf, JoinAlgo::kIndexNlj);
            const double cost = planner.EstimatePlanCost(q, c.plan);
            ++*cost_calls;
            if (cost < optimizer::kImpossibleCost) {
              c.score = LatencyToTarget(static_cast<VirtualNanos>(
                  std::min(cost, 1.0e18)));
              next[mask | bit].push_back(std::move(c));
            }
          }
        }
      }
    }
    // Per subset: keep top-k by cost, then apply the learned correction to
    // the survivors and re-rank.
    for (auto& [mask, candidates] : next) {
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.score < b.score;
                });
      if (static_cast<int32_t>(candidates.size()) > options_.topk_per_mask) {
        candidates.resize(static_cast<size_t>(options_.topk_per_mask));
      }
      for (Candidate& c : candidates) net_adjust(&c);
      std::sort(candidates.begin(), candidates.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.score < b.score;
                });
    }
    // Beam over subsets: keep the most promising masks.
    if (static_cast<int32_t>(next.size()) > options_.beam_masks) {
      std::vector<std::pair<double, AliasMask>> ranked;
      for (const auto& [mask, candidates] : next) {
        ranked.emplace_back(candidates.front().score, mask);
      }
      std::sort(ranked.begin(), ranked.end());
      std::map<AliasMask, std::vector<Candidate>> pruned;
      for (int32_t i = 0; i < options_.beam_masks; ++i) {
        pruned[ranked[static_cast<size_t>(i)].second] =
            std::move(next[ranked[static_cast<size_t>(i)].second]);
      }
      next = std::move(pruned);
    }
    level = std::move(next);
  }

  LQOLAB_CHECK_EQ(level.size(), 1u);
  std::vector<Candidate> finals = std::move(level.begin()->second);
  for (Candidate& c : finals) c.plan.Validate(q);
  return finals;
}

TrainReport LeonOptimizer::Train(const std::vector<Query>& train_set,
                                 Database* db) {
  model_a_.Bind(db);
  model_b_.Bind(db);
  TrainReport report;

  engine::BatchExecutor executor(db, options_.seed, training_parallelism());

  int32_t episode_index = 0;
  for (const Query& q : train_set) {
    // Respect the end-to-end training budget (the paper capped LEON's
    // training at 120 hours and notes the budget cuts it short). The check
    // leaves out the per-plan overhead.
    if (report.TrainingTimeNs(timing::kLeonSubplanCallNs, 0) >=
        options_.train_budget_ns) {
      break;
    }
    const TrainReport before = report;

    std::vector<Candidate> candidates =
        Enumerate(q, db, &report.planner_calls, &report.nn_evals);
    if (candidates.empty()) continue;

    // Execute the best-ranked plan plus the most uncertain ones.
    std::vector<size_t> to_execute = {0};
    std::vector<size_t> by_uncertainty;
    for (size_t i = 1; i < candidates.size(); ++i) by_uncertainty.push_back(i);
    std::sort(by_uncertainty.begin(), by_uncertainty.end(),
              [&](size_t a, size_t b) {
                return candidates[a].uncertainty > candidates[b].uncertainty;
              });
    for (size_t i : by_uncertainty) {
      if (static_cast<int32_t>(to_execute.size()) >= options_.exec_per_query) {
        break;
      }
      to_execute.push_back(i);
    }

    // The selected candidates are independent executions of one query.
    std::vector<engine::PlanExec> batch;
    batch.reserve(to_execute.size());
    for (size_t idx : to_execute) {
      batch.push_back({&q, &candidates[idx].plan, 0});
    }
    const std::vector<engine::QueryRun> runs = executor.Execute(batch);
    report.AddRuns(runs);

    // Pairwise ranking updates on the executed plans of this query, both
    // networks in step, in a fixed order.
    std::vector<ValueModel::Sample> pairs;
    for (size_t i = 0; i < batch.size(); ++i) {
      for (size_t j = 0; j < batch.size(); ++j) {
        if (runs[i].execution_ns >= runs[j].execution_ns) continue;
        pairs.push_back({.query = q,
                         .plan = *batch[i].plan,
                         .worse = *batch[j].plan});
      }
    }
    const std::vector<float> qenc = model_a_.EncodeQuery(q);
    double loss_sum = 0.0;
    for (int32_t epoch = 0; epoch < options_.pair_epochs; ++epoch) {
      for (const ValueModel::Sample& pair : pairs) {
        loss_sum += model_a_.Step(qenc, pair);
        loss_sum += model_b_.Step(qenc, pair);
        report.nn_updates += 2;
      }
    }

    // One query's active-learning step is one episode; its training-time
    // share uses LEON's formula (subplan calls dominate).
    report.RecordEpisode(before, episode_index++, loss_sum,
                         timing::kLeonSubplanCallNs);
  }

  report.training_time_ns = std::min<util::VirtualNanos>(
      report.TrainingTimeNs(timing::kLeonSubplanCallNs),
      options_.train_budget_ns + 3600ll * 1'000'000'000);
  return report;
}

Prediction LeonOptimizer::Plan(const Query& q, Database* db) {
  model_a_.Bind(db);
  model_b_.Bind(db);
  Prediction prediction;
  int64_t cost_calls = 0;
  std::vector<Candidate> candidates =
      Enumerate(q, db, &cost_calls, &prediction.nn_evals);
  LQOLAB_CHECK(!candidates.empty());
  prediction.plan = std::move(candidates.front().plan);
  prediction.inference_ns = cost_calls * timing::kLeonSubplanCallNs +
                            prediction.nn_evals * timing::kNnEvalNs;
  return prediction;
}

EncodingSpec LeonOptimizer::encoding_spec() const {
  return {"LEON",     "yes",  "cardinality", "cardinality", "stacking",
          "yes",      "yes",  "yes",         "-",           "LTR",
          "Tree-CNN", "Plan", "Static",      "-"};
}

}  // namespace lqolab::lqo
