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

LogerOptimizer::LogerOptimizer() : LogerOptimizer(Options()) {}
LogerOptimizer::LogerOptimizer(Options options) : options_(options) {}
LogerOptimizer::~LogerOptimizer() = default;

void LogerOptimizer::EnsureModel(Database* db) {
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
  rng_state_ = options_.seed ^ 0x41c64e6dULL;
}

SearchResult LogerOptimizer::BeamSearch(const Query& q, Database* db,
                                        double epsilon) {
  SearchResult result;
  const std::vector<float> qenc = query_encoder_->Encode(q);
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
  auto uniform = [&]() {
    rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(rng_state_ >> 11) * 0x1.0p-53;
  };

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
  if (static_cast<int32_t>(beam.size()) > options_.beam_width) {
    beam.resize(static_cast<size_t>(options_.beam_width));
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
          next.score = net_->Score(qenc, q, next.plan, *plan_encoder_);
          ++result.evals;
          if (epsilon > 0.0 && uniform() < epsilon) {
            next.score -= uniform();  // epsilon-beam: random promotion
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
          next.score = net_->Score(qenc, q, next.plan, *plan_encoder_);
          ++result.evals;
          expanded.push_back(std::move(next));
        }
      }
    }
    LQOLAB_CHECK(!expanded.empty());
    std::sort(expanded.begin(), expanded.end(),
              [](const State& x, const State& y) { return x.score < y.score; });
    if (static_cast<int32_t>(expanded.size()) > options_.beam_width) {
      expanded.resize(static_cast<size_t>(options_.beam_width));
    }
    beam = std::move(expanded);
  }
  result.plan = std::move(beam.front().plan);
  result.plan.Validate(q);
  return result;
}

double LogerOptimizer::Fit(int32_t epochs, TrainReport* report) {
  std::vector<size_t> idx(replay_.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  double loss_sum = 0.0;
  for (int32_t epoch = 0; epoch < epochs; ++epoch) {
    for (size_t i = idx.size(); i > 1; --i) {
      rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(idx[i - 1], idx[(rng_state_ >> 33) % i]);
    }
    for (size_t i : idx) {
      const Sample& sample = replay_[i];
      loss_sum += net_->TrainRegression(
          query_encoder_->Encode(sample.query), sample.query, sample.plan,
          *plan_encoder_, sample.target, adam_.get());
      ++report->nn_updates;
    }
  }
  return loss_sum;
}

TrainReport LogerOptimizer::Train(const std::vector<Query>& train_set,
                                  Database* db) {
  EnsureModel(db);
  TrainReport report;
  engine::BatchExecutor executor(db, options_.seed, training_parallelism());
  // Executes one plan per training query and adds the runs to the replay
  // buffer.
  auto collect = [&](std::vector<PhysicalPlan> plans) {
    const std::vector<engine::QueryRun> runs =
        executor.Execute(train_set, plans);
    report.AddRuns(runs);
    for (size_t i = 0; i < runs.size(); ++i) {
      replay_.push_back({train_set[i], std::move(plans[i]),
                         LatencyToTarget(runs[i].execution_ns)});
    }
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
    const double loss_sum = Fit(options_.train_epochs, &report);
    std::vector<PhysicalPlan> plans;
    plans.reserve(train_set.size());
    for (const Query& q : train_set) {
      SearchResult search = BeamSearch(q, db, options_.epsilon);
      report.nn_evals += search.evals;
      plans.push_back(std::move(search.plan));
    }
    collect(std::move(plans));
    report.RecordEpisode(before, iter + 1, loss_sum);
  }
  const TrainReport before = report;
  report.RecordEpisode(before, options_.iterations + 1,
                       Fit(options_.train_epochs, &report));
  report.training_time_ns = report.TrainingTimeNs();
  return report;
}

Prediction LogerOptimizer::Plan(const Query& q, Database* db) {
  EnsureModel(db);
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
