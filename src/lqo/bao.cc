#include "lqo/bao.h"

#include <algorithm>
#include <limits>

#include "engine/exec_batch.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace lqolab::lqo {

using engine::Database;
using engine::DbConfig;
using query::Query;

std::vector<HintSet> DefaultHintSets() {
  std::vector<HintSet> sets(6);
  sets[0].name = "all_on";
  sets[1].name = "no_nestloop";
  sets[1].enable_nestloop = false;
  sets[2].name = "no_hashjoin";
  sets[2].enable_hashjoin = false;
  sets[3].name = "no_mergejoin";
  sets[3].enable_mergejoin = false;
  sets[4].name = "no_index";
  sets[4].enable_indexscan = false;
  sets[4].enable_bitmapscan = false;
  sets[5].name = "no_nl_merge";
  sets[5].enable_nestloop = false;
  sets[5].enable_mergejoin = false;
  return sets;
}

DbConfig ApplyHintSet(DbConfig config, const HintSet& hints) {
  config.enable_nestloop = hints.enable_nestloop;
  config.enable_hashjoin = hints.enable_hashjoin;
  config.enable_mergejoin = hints.enable_mergejoin;
  config.enable_indexscan = hints.enable_indexscan;
  config.enable_bitmapscan = hints.enable_bitmapscan;
  config.enable_seqscan = hints.enable_seqscan;
  return config;
}

namespace {

/// Epoch e explores a random hint set with probability 0.5 / (e + 1).
constexpr double kInitialEpsilon = 0.5;

// PostgreSQL enable_* settings are soft: when no permitted plan exists the
// planner falls back to a "disabled" operator anyway. A hint failure is a
// returned plan containing an operator its hint set switched off.
bool ViolatesHintSet(const optimizer::PhysicalPlan& plan,
                     const HintSet& hints) {
  using optimizer::JoinAlgo;
  using optimizer::PlanNode;
  using optimizer::ScanType;
  for (const PlanNode& node : plan.nodes) {
    if (node.type == PlanNode::Type::kJoin) {
      if (node.algo == JoinAlgo::kHash && !hints.enable_hashjoin) return true;
      if ((node.algo == JoinAlgo::kNestLoop ||
           node.algo == JoinAlgo::kIndexNlj) &&
          !hints.enable_nestloop) {
        return true;
      }
      if (node.algo == JoinAlgo::kMerge && !hints.enable_mergejoin) return true;
    } else {
      if (node.scan_type == ScanType::kSeq && !hints.enable_seqscan)
        return true;
      if (node.scan_type == ScanType::kIndex && !hints.enable_indexscan)
        return true;
      if (node.scan_type == ScanType::kBitmap && !hints.enable_bitmapscan)
        return true;
    }
  }
  return false;
}

}  // namespace

BaoOptimizer::BaoOptimizer() : BaoOptimizer(Options()) {}

BaoOptimizer::BaoOptimizer(Options options)
    : options_(options),
      hint_sets_(DefaultHintSets()),
      // No query encoding (Table 1).
      model_({.style = PlanEncodingStyle::kCardinalityOnly,
              .encode_query = false,
              .hidden = 48,
              .seed = options.seed,
              .stream_salt = 0x2545f491ULL}) {}
BaoOptimizer::~BaoOptimizer() = default;

std::vector<BaoOptimizer::ArmCandidate> BaoOptimizer::PlanArms(
    const Query& q, Database* db, TrainReport* report) {
  const DbConfig saved = db->config();
  std::vector<ArmCandidate> candidates;
  candidates.reserve(hint_sets_.size());
  for (const HintSet& hints : hint_sets_) {
    db->SetConfig(ApplyHintSet(saved, hints));
    Database::Planned planned = db->PlanQuery(q);
    if (report != nullptr) ++report->planner_calls;
    obs::Count(obs::Counter::kHintSetsPlanned);
    if (ViolatesHintSet(planned.plan, hints)) {
      obs::Count(obs::Counter::kHintFailures);
    }
    ArmCandidate candidate;
    candidate.plan = std::move(planned.plan);
    candidate.planning_ns = planned.planning_ns;
    candidate.score = model_.Score({}, q, candidate.plan);
    candidates.push_back(std::move(candidate));
  }
  db->SetConfig(saved);
  return candidates;
}

TrainReport BaoOptimizer::Train(const std::vector<Query>& train_set,
                                Database* db) {
  model_.Bind(db);
  TrainReport report;
  engine::BatchExecutor executor(db, options_.seed, training_parallelism());
  for (int32_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const TrainReport before = report;
    const double epsilon = kInitialEpsilon / static_cast<double>(epoch + 1);
    // Per-arm planning, model scoring and the epsilon-greedy arm choice
    // advance serially in query order (parent config, training stream);
    // then the episode's chosen plans execute as one batch.
    std::vector<optimizer::PhysicalPlan> chosen_plans;
    chosen_plans.reserve(train_set.size());
    for (const Query& q : train_set) {
      std::vector<ArmCandidate> candidates = PlanArms(q, db, &report);
      report.nn_evals += static_cast<int64_t>(candidates.size());
      size_t chosen = 0;
      const uint64_t draw = model_.stream().Next();
      if (TrainingStream::UnitOf(draw) < epsilon) {
        chosen = TrainingStream::IndexOf(draw, candidates.size());
      } else {
        double best = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < candidates.size(); ++i) {
          if (candidates[i].score < best) {
            best = candidates[i].score;
            chosen = i;
          }
        }
      }
      chosen_plans.push_back(std::move(candidates[chosen].plan));
    }
    const std::vector<engine::QueryRun> runs =
        executor.Execute(train_set, chosen_plans);
    report.AddRuns(runs);
    ValueModel::AppendRuns(train_set, std::move(chosen_plans), runs,
                           &experience_);
    report.RecordEpisode(
        before, epoch,
        model_.Fit(experience_, options_.train_epochs, &report));
  }
  report.training_time_ns = report.TrainingTimeNs();
  return report;
}

Prediction BaoOptimizer::Plan(const Query& q, Database* db) {
  model_.Bind(db);
  std::vector<ArmCandidate> candidates = PlanArms(q, db, nullptr);
  size_t chosen = 0;
  double best = std::numeric_limits<double>::infinity();
  util::VirtualNanos planning_total = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    planning_total += candidates[i].planning_ns;
    if (candidates[i].score < best) {
      best = candidates[i].score;
      chosen = i;
    }
  }
  Prediction prediction;
  prediction.plan = std::move(candidates[chosen].plan);
  prediction.nn_evals = static_cast<int64_t>(candidates.size());
  // Bao runs inside the DBMS: model evaluation and the per-hint-set
  // plannings are all reported as planning time (paper Fig. 5 note).
  prediction.inference_ns = 0;
  prediction.planning_ns =
      planning_total +
      static_cast<util::VirtualNanos>(candidates.size()) * timing::kNnEvalNs;
  return prediction;
}

EncodingSpec BaoOptimizer::encoding_spec() const {
  return {"Bao",      "-",        "-",   "-",           "-",
          "yes",      "yes",      "-",   "yes",         "Regression",
          "Tree-CNN", "Hint set", "Time Series", "yes"};
}

}  // namespace lqolab::lqo
