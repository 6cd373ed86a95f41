#ifndef LQOLAB_LQO_PLAN_SEARCH_H_
#define LQOLAB_LQO_PLAN_SEARCH_H_

#include <functional>
#include <vector>

#include "optimizer/cost_model.h"
#include "optimizer/physical_plan.h"
#include "query/query.h"

namespace lqolab::lqo {

class TrainingStream;

/// Merges two standalone plan fragments into one plan joined by `algo`
/// (node indices of `right` are rebased after `left`'s).
optimizer::PhysicalPlan CombinePlans(const optimizer::PhysicalPlan& left,
                                     const optimizer::PhysicalPlan& right,
                                     optimizer::JoinAlgo algo);

/// Scores a candidate (partial) plan; lower is better.
using PlanScorer = std::function<double(const optimizer::PhysicalPlan&)>;

/// Result of a value-guided plan search.
struct SearchResult {
  optimizer::PhysicalPlan plan;
  /// Scorer invocations (drives modeled inference time).
  int64_t evals = 0;
};

/// Neo/Balsa-style greedy bottom-up search: start from one best-scan leaf
/// per alias, repeatedly join the connected fragment pair (x algorithm)
/// whose resulting subtree the scorer likes best, until one tree remains.
/// Only connected combinations are considered; index-NLJ candidates are
/// generated when the inner is a base relation with a usable index.
SearchResult GreedyBottomUpSearch(const query::Query& q,
                                  const optimizer::CostModel& cost_model,
                                  const PlanScorer& scorer);

/// Repairs an arbitrary alias preference sequence into a valid connected
/// join order (earliest preferred connectable alias next).
std::vector<query::AliasId> RepairOrder(
    const query::Query& q, const std::vector<query::AliasId>& preference);

/// Completes a connected prefix to a full connected order by appending the
/// lowest-index connectable alias at each step.
std::vector<query::AliasId> ExtendGreedily(
    const query::Query& q, std::vector<query::AliasId> prefix);

/// Uniformly random valid plan (random connected join order, random
/// algorithms, best-cost scans); used for Balsa's cost-based pretraining
/// sampling. Draws its choices from `*stream`.
optimizer::PhysicalPlan RandomPlan(const query::Query& q,
                                   const optimizer::CostModel& cost_model,
                                   TrainingStream* stream);

}  // namespace lqolab::lqo

#endif  // LQOLAB_LQO_PLAN_SEARCH_H_
