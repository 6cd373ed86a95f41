#ifndef LQOLAB_FUZZ_DIFFERENTIAL_H_
#define LQOLAB_FUZZ_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "faultlib/faultlib.h"
#include "lqo/interface.h"
#include "query/query.h"

namespace lqolab::fuzz {

/// How many of each oracle check ran (one unit = one assertion batch on one
/// query or plan).
struct CheckCounts {
  int64_t cost_enumeration = 0;  ///< DP cost vs exhaustive enumeration.
  int64_t execution = 0;         ///< Cross-plan result-row comparisons.
  int64_t estimator = 0;         ///< Estimator invariant sweeps.
  int64_t plan_cache = 0;        ///< PlanCache round trips.
  int64_t hint_roundtrip = 0;    ///< Hint render/parse round trips.
  int64_t fault_execution = 0;   ///< Fault-mode re-executions (availability
                                 ///< may drop, cardinality must not change).
  int64_t engine_differential = 0;  ///< Engine arm: a fresh
                                    ///< fuzz::ScalarOracle's full-mask
                                    ///< count must equal the executed
                                    ///< result rows.
  int64_t sql_round_trip = 0;       ///< SQL-emission arm: render the query
                                    ///< to SQL, parse+bind it back, and the
                                    ///< rebound query must fingerprint,
                                    ///< render and plan byte-identically.
  int64_t replan_differential = 0;  ///< Adaptive-replan twin arm: the same
                                    ///< plan re-run with mid-query
                                    ///< re-optimization enabled under a
                                    ///< keyed estimator poison must report
                                    ///< the same result rows.

  int64_t total() const {
    return cost_enumeration + execution + estimator + plan_cache +
           hint_roundtrip + fault_execution +
           engine_differential + sql_round_trip + replan_differential;
  }
  CheckCounts& operator+=(const CheckCounts& o) {
    cost_enumeration += o.cost_enumeration;
    execution += o.execution;
    estimator += o.estimator;
    plan_cache += o.plan_cache;
    hint_roundtrip += o.hint_roundtrip;
    fault_execution += o.fault_execution;
    engine_differential += o.engine_differential;
    sql_round_trip += o.sql_round_trip;
    replan_differential += o.replan_differential;
    return *this;
  }
  bool operator==(const CheckCounts&) const = default;
};

/// One violated invariant: which check tripped and a human-readable detail
/// (also the note written into reproducer files).
struct Discrepancy {
  std::string check;
  std::string detail;
};

/// Outcome of running every applicable check on one query.
struct CheckReport {
  CheckCounts checks;
  std::vector<Discrepancy> discrepancies;
  int64_t plans_executed = 0;
  int64_t timeouts = 0;

  bool failed() const { return !discrepancies.empty(); }
};

/// Counts the join result by plain backtracking over filtered base rows —
/// no hash joins, no semi-join reduction, no memoization — as an
/// implementation-independent ground truth for exec::Oracle. Returns false
/// (and leaves `*rows` alone) when the row-pair work exceeds `work_cap`.
bool ReferenceCount(const exec::DbContext& ctx, const query::Query& q,
                    int64_t work_cap, int64_t* rows);

/// The differential oracle. Per query it (a) re-derives the optimal plan
/// cost by independent exhaustive enumeration and compares it to the DP
/// planner's, (b) executes the DP, GEQO, shuffled-hint and every registered
/// LQO arm's plan on isolated replicas and asserts they produce the same
/// row count (and, on small queries, that an independent nested-loop count
/// agrees), (c) sweeps estimator invariants (finite, >= 1 row, selectivity
/// in (0,1], base rows monotone under added conjuncts), and (d) round-trips
/// every plan through serve::PlanCache and the plan-hint grammar asserting
/// byte identity, plus the query itself through its SQL text (the
/// reproducer format): render, parse and bind back, and the rebound query
/// must fingerprint, render and DP-plan byte-identically. On every executed
/// query, one plan also re-runs with adaptive replanning under a keyed
/// estimator poison and must report the same rows (docs/overload.md).
class DifferentialOracle {
 public:
  /// With a non-empty `fault_plan`, every arm that passed the clean
  /// execution check re-runs under a per-query FaultInjector seeded from
  /// (fault_plan.seed, query fingerprint). A faulted run may lose
  /// availability (typed error, timeout), but a faulted run that SUCCEEDS
  /// must report the clean run's result cardinality: injected faults must
  /// never silently corrupt answers.
  explicit DifferentialOracle(engine::Database* db,
                              faultlib::FaultPlan fault_plan = {});

  /// Registers an LQO arm whose plans join the execution cross-check.
  /// `arm` must outlive this oracle; it may be untrained (planning must
  /// still be deterministic and correct).
  void AddLqoArm(lqo::LearnedOptimizer* arm);

  CheckReport Check(const query::Query& q);

 private:
  struct ArmPlan {
    std::string name;
    optimizer::PhysicalPlan plan;
    double estimated_cost = 0.0;
  };

  std::vector<ArmPlan> BuildPlans(const query::Query& q,
                                  CheckReport* report);
  void CheckCostEnumeration(const query::Query& q,
                            const std::vector<ArmPlan>& plans,
                            CheckReport* report);
  void CheckEstimatorInvariants(const query::Query& q, CheckReport* report);
  void CheckExecution(const query::Query& q,
                      const std::vector<ArmPlan>& plans, CheckReport* report);
  void CheckPlanRoundTrips(const query::Query& q,
                           const std::vector<ArmPlan>& plans,
                           CheckReport* report);
  void CheckSqlRoundTrip(const query::Query& q, CheckReport* report);

  engine::Database* db_;
  faultlib::FaultPlan fault_plan_;
  std::vector<lqo::LearnedOptimizer*> arms_;
};

}  // namespace lqolab::fuzz

#endif  // LQOLAB_FUZZ_DIFFERENTIAL_H_
