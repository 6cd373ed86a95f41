#include "lqo/loger.h"

#include <algorithm>
#include <limits>

#include "engine/exec_batch.h"
#include "util/check.h"

namespace lqolab::lqo {

using engine::Database;
using optimizer::JoinAlgo;
using optimizer::PhysicalPlan;
using optimizer::ScanType;
using query::AliasId;
using query::AliasMask;
using query::Query;

namespace {

constexpr int32_t kBeamWidth = 3;
/// Epsilon-beam exploration during training.
constexpr double kTrainingEpsilon = 0.1;

}  // namespace

LogerOptimizer::LogerOptimizer() : LogerOptimizer(Options()) {}
LogerOptimizer::LogerOptimizer(Options options)
    : options_(options),
      model_({.hidden = 48,
              .seed = options.seed,
              .stream_salt = 0x41c64e6dULL}) {}
LogerOptimizer::~LogerOptimizer() = default;

SearchResult LogerOptimizer::BeamSearch(const Query& q, Database* db,
                                        double epsilon) {
  SearchResult result;
  const std::vector<float> qenc = model_.EncodeQuery(q);
  const auto& cm = db->planner().cost_model();

  struct State {
    PhysicalPlan plan;  // left-deep, grows one (relation, algo) per step
    AliasMask mask = 0;
    double score = 0.0;
  };
  auto leaf = [&](AliasId a) {
    const auto scan = cm.BestScan(q, a);
    PhysicalPlan plan;
    plan.AddScan(a, scan.type, scan.index_column);
    return plan;
  };
  TrainingStream& stream = model_.stream();

  // Initial beam: every relation as the starting leaf, ranked by score of
  // its engine-completed greedy extension (cheap proxy: base estimate).
  std::vector<State> beam;
  for (AliasId a = 0; a < q.relation_count(); ++a) {
    State state;
    state.plan = leaf(a);
    state.mask = query::MaskOf(a);
    state.score = db->planner().estimator().EstimateBaseRows(q, a);
    beam.push_back(std::move(state));
  }
  std::sort(beam.begin(), beam.end(),
            [](const State& x, const State& y) { return x.score < y.score; });
  if (static_cast<int32_t>(beam.size()) > kBeamWidth) {
    beam.resize(static_cast<size_t>(kBeamWidth));
  }

  for (int32_t step = 1; step < q.relation_count(); ++step) {
    std::vector<State> expanded;
    for (const State& state : beam) {
      for (AliasId a = 0; a < q.relation_count(); ++a) {
        if ((state.mask & query::MaskOf(a)) != 0 ||
            (q.AdjacencyMask(a) & state.mask) == 0) {
          continue;
        }
        // The extended action space: relation AND join type.
        for (JoinAlgo algo :
             {JoinAlgo::kHash, JoinAlgo::kMerge, JoinAlgo::kNestLoop}) {
          State next;
          next.plan = CombinePlans(state.plan, leaf(a), algo);
          next.mask = state.mask | query::MaskOf(a);
          next.score = model_.Score(qenc, q, next.plan);
          ++result.evals;
          if (epsilon > 0.0 && stream.Uniform() < epsilon) {
            next.score -= stream.Uniform();  // epsilon-beam: random promotion
          }
          expanded.push_back(std::move(next));
        }
        catalog::ColumnId probe = catalog::kInvalidColumn;
        if (cm.CanIndexNlj(q, state.mask, a, &probe)) {
          State next;
          PhysicalPlan inner;
          inner.AddScan(a, ScanType::kIndex, probe);
          next.plan = CombinePlans(state.plan, inner, JoinAlgo::kIndexNlj);
          next.mask = state.mask | query::MaskOf(a);
          next.score = model_.Score(qenc, q, next.plan);
          ++result.evals;
          expanded.push_back(std::move(next));
        }
      }
    }
    LQOLAB_CHECK(!expanded.empty());
    std::sort(expanded.begin(), expanded.end(),
              [](const State& x, const State& y) { return x.score < y.score; });
    if (static_cast<int32_t>(expanded.size()) > kBeamWidth) {
      expanded.resize(static_cast<size_t>(kBeamWidth));
    }
    beam = std::move(expanded);
  }
  result.plan = std::move(beam.front().plan);
  result.plan.Validate(q);
  return result;
}

TrainReport LogerOptimizer::Train(const std::vector<Query>& train_set,
                                  Database* db) {
  model_.Bind(db);
  TrainReport report;
  engine::BatchExecutor executor(db, options_.seed, training_parallelism());
  // Executes one plan per training query and adds the runs to the replay
  // buffer.
  auto collect = [&](std::vector<PhysicalPlan> plans) {
    const std::vector<engine::QueryRun> runs =
        executor.Execute(train_set, plans);
    report.AddRuns(runs);
    ValueModel::AppendRuns(train_set, std::move(plans), runs, &replay_);
  };
  // Bootstrap from the native optimizer: episode 0, no fitting yet.
  {
    std::vector<PhysicalPlan> plans;
    plans.reserve(train_set.size());
    for (const Query& q : train_set) {
      plans.push_back(db->PlanQuery(q).plan);
      ++report.planner_calls;
    }
    collect(std::move(plans));
    report.RecordEpisode(TrainReport{}, 0, 0.0);
  }
  for (int32_t iter = 0; iter < options_.iterations; ++iter) {
    const TrainReport before = report;
    const double loss_sum =
        model_.Fit(replay_, options_.train_epochs, &report);
    std::vector<PhysicalPlan> plans;
    plans.reserve(train_set.size());
    for (const Query& q : train_set) {
      SearchResult search = BeamSearch(q, db, kTrainingEpsilon);
      report.nn_evals += search.evals;
      plans.push_back(std::move(search.plan));
    }
    collect(std::move(plans));
    report.RecordEpisode(before, iter + 1, loss_sum);
  }
  const TrainReport before = report;
  report.RecordEpisode(before, options_.iterations + 1,
                       model_.Fit(replay_, options_.train_epochs, &report));
  report.training_time_ns = report.TrainingTimeNs();
  return report;
}

Prediction LogerOptimizer::Plan(const Query& q, Database* db) {
  model_.Bind(db);
  SearchResult search = BeamSearch(q, db, 0.0);
  Prediction prediction;
  prediction.plan = std::move(search.plan);
  prediction.nn_evals = search.evals;
  prediction.inference_ns = search.evals * timing::kNnEvalNs;
  return prediction;
}

EncodingSpec LogerOptimizer::encoding_spec() const {
  return {"LOGER",     "yes",  "filters", "cardinality", "FC + pooling + GT",
          "yes",       "-",    "yes",     "-",           "Regression",
          "Tree-LSTM", "Hint", "Static",  "-"};
}

}  // namespace lqolab::lqo
