#ifndef LQOLAB_OPTIMIZER_PLANNER_H_
#define LQOLAB_OPTIMIZER_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/db_context.h"
#include "optimizer/cost_model.h"
#include "optimizer/physical_plan.h"
#include "query/query.h"
#include "stats/cardinality_estimator.h"

namespace lqolab::optimizer {

/// Output of query planning.
struct PlanningResult {
  PhysicalPlan plan;
  /// Estimated total cost (virtual nanoseconds under the cost model).
  double estimated_cost = 0.0;
  /// DP subproblems / GEQO evaluations performed; drives the modeled
  /// planning time.
  int64_t planner_steps = 0;
  bool used_geqo = false;
};

/// GEQO tuning knobs (pglite's equivalent of geqo_pool_size/geqo_generations).
struct GeqoParams {
  int32_t pool_size = 40;
  int32_t generations = 60;
  uint64_t seed = 0;  ///< Combined with the query fingerprint.
};

/// The pglite query planner: System-R style dynamic programming over
/// connected subgraphs (bushy or left-deep), switching to the genetic
/// optimizer (GEQO) at config.geqo_threshold relations, exactly like
/// PostgreSQL. All decisions are made on ESTIMATED cardinalities.
///
/// Each public entry point estimates and costs through one CallState that
/// lives for that call only, so a subset's estimate, an alias's cheapest
/// scan or its index facts are derived once however many DP splits or GEQO
/// orders reuse them. Nothing outlives the call: configuration changes (Bao
/// hint sets, SetConfig) and replan pins between calls need no
/// invalidation.
///
/// GEQO costs each crossover child from its parent's prefix: every
/// individual keeps its running cost and estimated rows after each
/// position of its order, and a child resumes from parent A's state at the
/// end of their common prefix, costing only the tail. Costs, plans and
/// planner_steps are those of costing every order from its first relation
/// (skipped steps are still counted); only the repeated costing of the
/// shared prefix is saved. Crossover and repair track the relations
/// taken in an alias bitmask and reuse one preference buffer and the
/// population's own order buffers across generations.
///
/// When metrics collection is enabled on the calling thread (obs/metrics.h),
/// planning emits the planner_* counters — invocations, DP subproblems,
/// GEQO generations and plans costed — without affecting the modeled
/// planning time.
class Planner {
 public:
  explicit Planner(const exec::DbContext* ctx);

  /// Plans under the context's configuration (DP / GEQO / FROM-order
  /// depending on geqo, geqo_threshold and join_collapse_limit).
  PlanningResult Plan(const query::Query& q) const;

  /// Exhaustive DP (bushy trees when `bushy`).
  PlanningResult PlanDynamicProgramming(const query::Query& q,
                                        bool bushy) const;

  /// Genetic planning over left-deep join orders.
  PlanningResult PlanGenetic(const query::Query& q,
                             const GeqoParams& params) const;

  /// Greedily picks physical operators for a fixed left-deep join order and
  /// returns its estimated cost (kImpossibleCost when the order contains a
  /// cross product). Used by GEQO fitness and by learned-optimizer search
  /// spaces.
  double CostJoinOrder(const query::Query& q,
                       const std::vector<query::AliasId>& order,
                       PhysicalPlan* plan_out, int64_t* steps) const;

  /// Estimated cost of an arbitrary physical plan (the cost model applied
  /// node by node over estimated cardinalities). Used by LQOs that pretrain
  /// on costs (Balsa) or rank subplans (LEON).
  double EstimatePlanCost(const query::Query& q,
                          const PhysicalPlan& plan) const;

  const CostModel& cost_model() const { return cost_model_; }
  const stats::CardinalityEstimator& estimator() const { return estimator_; }

 private:
  /// State of one public planning call (planner.cc): the query's estimate
  /// memo, the CostConstants of the configuration, and per alias its
  /// cheapest access path and its index-NLJ candidates
  /// (CostModel::IndexProbes), the last two filled lazily. Join costs go
  /// through the static CostModel::JoinCost with these inputs, so no join
  /// step walks the tables for CachedFraction, looks an index up or
  /// allocates.
  class CallState;

  /// Running state of a left-deep order after its first i + 1 relations:
  /// the cost so far (after the spool clamp) and the estimated rows.
  struct PrefixState {
    double total = 0.0;
    double rows = 0.0;
  };

  PlanningResult PlanDynamicProgramming(CallState& s, bool bushy) const;
  PlanningResult PlanGenetic(CallState& s, const GeqoParams& params) const;
  /// Costs `order` from position `resume` on. With resume > 0, prefix[0,
  /// resume) must already hold this order's states (GEQO children resume
  /// from their parent's), no plan is built, and the skipped steps are
  /// still counted in `steps`. When `prefix` is non-null, the state after
  /// every costed position is written to it.
  double CostJoinOrder(CallState& s, const std::vector<query::AliasId>& order,
                       size_t resume, PrefixState* prefix,
                       PhysicalPlan* plan_out, int64_t* steps) const;

  const exec::DbContext* ctx_;
  stats::CardinalityEstimator estimator_;
  CostModel cost_model_;
};

}  // namespace lqolab::optimizer

#endif  // LQOLAB_OPTIMIZER_PLANNER_H_
