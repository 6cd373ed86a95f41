#include "lqo/lero.h"

#include <algorithm>
#include <set>

#include "engine/exec_batch.h"
#include "util/check.h"

namespace lqolab::lqo {

using engine::Database;
using engine::DbConfig;
using optimizer::PhysicalPlan;
using query::Query;
using util::VirtualNanos;

LeroOptimizer::LeroOptimizer() : LeroOptimizer(Options()) {}
LeroOptimizer::LeroOptimizer(Options options)
    : options_(std::move(options)),
      // No query encoding (Table 1): the comparator sees plans only.
      model_({.encode_query = false,
              .output = ValueModel::Output::kPairwise,
              .hidden = 48,
              .seed = options_.seed,
              .stream_salt = 0x6c078965ULL}) {}
LeroOptimizer::~LeroOptimizer() = default;

std::vector<LeroOptimizer::Candidate> LeroOptimizer::GenerateCandidates(
    const Query& q, Database* db, TrainReport* report) {
  const DbConfig saved = db->config();
  std::vector<Candidate> candidates;
  std::set<std::string> seen;
  for (double factor : kScaleFactors) {
    DbConfig config = saved;
    config.join_selectivity_scale = factor;
    db->SetConfig(config);
    Database::Planned planned = db->PlanQuery(q);
    if (report != nullptr) ++report->planner_calls;
    if (!seen.insert(planned.plan.ToString(q)).second) continue;
    Candidate candidate;
    candidate.plan = std::move(planned.plan);
    candidate.planning_ns = planned.planning_ns;
    candidates.push_back(std::move(candidate));
  }
  db->SetConfig(saved);
  LQOLAB_CHECK(!candidates.empty());
  return candidates;
}

bool LeroOptimizer::Prefer(const Query& q, const PhysicalPlan& a,
                           const PhysicalPlan& b) {
  return model_.Score({}, q, a) < model_.Score({}, q, b);
}

TrainReport LeroOptimizer::Train(const std::vector<Query>& train_set,
                                 Database* db) {
  model_.Bind(db);
  TrainReport report;
  engine::BatchExecutor executor(db, options_.seed, training_parallelism());
  for (int32_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const TrainReport before = report;
    // Lero explores its candidate set during training: every distinct
    // candidate of every query executes, in query order.
    std::vector<std::vector<Candidate>> candidates;
    candidates.reserve(train_set.size());
    std::vector<engine::PlanExec> batch;
    for (const Query& q : train_set) {
      candidates.push_back(GenerateCandidates(q, db, &report));
      for (const Candidate& candidate : candidates.back()) {
        batch.push_back({&q, &candidate.plan, 0});
      }
    }
    const std::vector<engine::QueryRun> runs = executor.Execute(batch);
    report.AddRuns(runs);
    // Pairwise labels by measured latency: adjacent ranks give clean
    // comparator pairs.
    size_t next_run = 0;
    for (size_t qi = 0; qi < train_set.size(); ++qi) {
      std::vector<std::pair<VirtualNanos, size_t>> measured;
      for (size_t i = 0; i < candidates[qi].size(); ++i) {
        measured.emplace_back(runs[next_run++].execution_ns, i);
      }
      std::sort(measured.begin(), measured.end());
      for (size_t i = 0; i + 1 < measured.size(); ++i) {
        pairs_.push_back(
            {.query = train_set[qi],
             .plan = candidates[qi][measured[i].second].plan,
             .worse = candidates[qi][measured[i + 1].second].plan});
      }
    }
    // Comparator training over accumulated pairs.
    report.RecordEpisode(before, epoch,
                         model_.Fit(pairs_, options_.pair_epochs, &report));
  }
  report.training_time_ns = report.TrainingTimeNs();
  return report;
}

Prediction LeroOptimizer::Plan(const Query& q, Database* db) {
  model_.Bind(db);
  std::vector<Candidate> candidates = GenerateCandidates(q, db, nullptr);
  // Tournament by pairwise comparison (the plan comparator module).
  size_t best = 0;
  int64_t evals = 0;
  VirtualNanos planning_total = candidates[0].planning_ns;
  for (size_t i = 1; i < candidates.size(); ++i) {
    planning_total += candidates[i].planning_ns;
    if (Prefer(q, candidates[i].plan, candidates[best].plan)) best = i;
    evals += 2;
  }
  Prediction prediction;
  prediction.plan = std::move(candidates[best].plan);
  prediction.nn_evals = evals;
  // DBMS-integrated like Bao: candidate plannings + comparisons count as
  // planning time.
  prediction.inference_ns = 0;
  prediction.planning_ns = planning_total + evals * timing::kNnEvalNs;
  return prediction;
}

EncodingSpec LeroOptimizer::encoding_spec() const {
  return {"Lero",     "-",    "-",      "-",   "-",
          "yes",      "yes",  "yes",    "yes", "LTR",
          "Tree-CNN", "Plan", "Static", "yes"};
}

}  // namespace lqolab::lqo
