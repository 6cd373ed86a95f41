#include "costmodel/guided_optimizer.h"

#include <algorithm>
#include <utility>

#include "exec/cost_constants.h"
#include "lqo/bao.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace lqolab::costmodel {

using engine::Database;
using engine::DbConfig;
using query::Query;

std::vector<PlanCandidate> GenerateCandidatePlans(Database* db,
                                                  const Query& q) {
  const DbConfig saved = db->config();
  std::vector<PlanCandidate> candidates;
  const auto add = [&](DbConfig config, const std::string& source) {
    db->SetConfig(config);
    Database::Planned planned = db->PlanQuery(q);
    obs::Count(obs::Counter::kHintSetsPlanned);
    for (const PlanCandidate& existing : candidates) {
      if (existing.plan == planned.plan) return;
    }
    PlanCandidate candidate;
    candidate.plan = std::move(planned.plan);
    candidate.planning_ns = planned.planning_ns;
    candidate.source = source;
    candidates.push_back(std::move(candidate));
  };
  for (const lqo::HintSet& hints : lqo::DefaultHintSets()) {
    add(lqo::ApplyHintSet(saved, hints), hints.name);
  }
  // Lero-style candidates: perturb the estimator instead of the operator
  // set, surfacing join orders the default cardinalities never pick.
  for (const double scale : {0.1, 10.0}) {
    DbConfig config = saved;
    config.join_selectivity_scale = scale;
    add(config, scale < 1.0 ? "sel_x0.1" : "sel_x10");
  }
  db->SetConfig(saved);
  return candidates;
}

CostGuidedOptimizer::CostGuidedOptimizer(
    std::shared_ptr<const PlanCostModel> model)
    : model_(std::move(model)) {
  LQOLAB_CHECK(model_ != nullptr);
}

std::string CostGuidedOptimizer::name() const {
  return "cost_guided(" + model_->name() + ")";
}

lqo::TrainReport CostGuidedOptimizer::Train(
    const std::vector<query::Query>& train_set, Database* db) {
  // The cost model arrives already trained (offline bake-off or the serve
  // path's OnlineRefresher); there is nothing episodic to learn here.
  (void)train_set;
  (void)db;
  return {};
}

lqo::Prediction CostGuidedOptimizer::Plan(const Query& q, Database* db) {
  const std::vector<PlanCandidate> candidates = GenerateCandidatePlans(db, q);
  LQOLAB_CHECK(!candidates.empty());
  lqo::Prediction prediction;
  size_t best = 0;
  double best_ns = 0.0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double predicted = model_->PredictNs(q, candidates[i].plan);
    prediction.planning_ns += candidates[i].planning_ns;
    // Strict < keeps the first of tied candidates: deterministic ranking.
    if (i == 0 || predicted < best_ns) {
      best = i;
      best_ns = predicted;
    }
  }
  prediction.plan = candidates[best].plan;
  prediction.nn_evals = static_cast<int64_t>(candidates.size()) *
                        model_->nn_evals_per_prediction();
  prediction.inference_ns = prediction.nn_evals * lqo::timing::kNnEvalNs;
  return prediction;
}

lqo::EncodingSpec CostGuidedOptimizer::encoding_spec() const {
  lqo::EncodingSpec spec;
  spec.name = name();
  spec.adjacency_matrix = "implicit (tree aggregation)";
  spec.numerical_attributes = "est. cardinality + cost proxy per node";
  spec.text_attributes = "none";
  spec.encoding_aggregation = "sum/max/root over node encodings + shape";
  spec.join_type = "one-hot";
  spec.scan_type = "one-hot";
  spec.table_identifier = "none (schema-agnostic)";
  spec.extra_data = "join-graph shape features";
  spec.ml_model = "MLP regressor (plan-level cost)";
  spec.plan_processing = "flattened tree aggregate";
  spec.model_output = "predicted latency (log-ms)";
  spec.testing = "hint + selectivity sweep, rank by predicted cost";
  spec.dbms_integration = "extension-style (native planner candidates)";
  return spec;
}

}  // namespace lqolab::costmodel
