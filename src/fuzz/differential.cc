#include "fuzz/differential.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "exec/oracle.h"
#include "fuzz/scalar_oracle.h"
#include "optimizer/plan_hint.h"
#include "query/predicate_binding.h"
#include "sql/binder.h"
#include "serve/plan_cache.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/virtual_clock.h"

namespace lqolab::fuzz {

using optimizer::kImpossibleCost;
using optimizer::PhysicalPlan;
using optimizer::PlanningResult;
using query::AliasId;
using query::AliasMask;
using query::Query;

namespace {

/// Exhaustive plan enumeration is exponential; cap it (paper-style n<=7).
constexpr int32_t kExhaustiveMaxRelations = 7;
/// GEQO-arm population. Far smaller than the production defaults: the
/// oracle checks every GEQO plan for correctness, not plan quality, and it
/// runs GEQO on every query instead of only the 12-relation ones.
constexpr int32_t kGeqoPoolSize = 16;
constexpr int32_t kGeqoGenerations = 12;
/// Executing every arm's plan on a fresh replica is the most expensive
/// check; cap the relation count it applies to.
constexpr int32_t kExecMaxRelations = 8;
/// Also cap the edge count. The oracle materializes every join subset of
/// every shape, acyclic or not, and dense cliques with many residual edges
/// can take seconds per plan to materialize. The generator's shapes within
/// 8 relations have at most 7 edges (chains, stars, cliques up to 4) or 10
/// and 15 (5- and 6-cliques), so any cap from 7 to 9 keeps the same
/// queries: without it, the 500-query fuzz run executes 89 more queries and
/// 11 of their plans time out.
constexpr int32_t kExecMaxEdges = 9;
/// Pair-iteration budget of the independent nested-loop reference count
/// (checked against every executed plan's result on small queries).
constexpr int64_t kReferenceWorkCap = 4'000'000;
/// Virtual-time execution budget per plan; far above any sane plan on the
/// fuzzing profile, so only oracle-overflow queries time out (10 virtual
/// minutes).
constexpr util::VirtualNanos kExecTimeoutNs = 600'000'000'000;
/// Replay seed used for every differential execution.
constexpr uint64_t kExecSeed = 42;

/// Relative tolerance for cost comparisons: the DP planner and the
/// reference enumeration evaluate identical formulas, but may associate
/// floating-point products differently.
bool CostsClose(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-6 * scale;
}

std::string FormatCost(double cost) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", cost);
  return buffer;
}

/// Best bushy plan cost over `mask` by brute-force recursion over every
/// connected (s1, s2) split — an independent re-derivation of the DP
/// recurrence (same cost model, separately written enumeration). Memoized
/// per subset; exponential but fine for n <= 7.
class ExhaustiveCost {
 public:
  ExhaustiveCost(const optimizer::Planner& planner, const Query& q)
      : planner_(planner), q_(q) {}

  double Best(AliasMask mask) {
    const auto it = memo_.find(mask);
    if (it != memo_.end()) return it->second;
    const optimizer::CostModel& cm = planner_.cost_model();
    const stats::CardinalityEstimator& est = planner_.estimator();
    double best = kImpossibleCost;
    if (std::popcount(mask) == 1) {
      const AliasId alias = static_cast<AliasId>(std::countr_zero(mask));
      best = cm.BestScan(q_, alias).cost;
    } else {
      const double rows_out = est.EstimateJoinRows(q_, mask);
      for (AliasMask s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
        const AliasMask s2 = mask ^ s1;
        if (!q_.IsConnected(s1) || !q_.IsConnected(s2)) continue;
        if (!q_.HasEdgeBetween(s1, s2)) continue;
        const double left = Best(s1);
        const double right = Best(s2);
        const double rows_l = est.EstimateJoinRows(q_, s1);
        const double rows_r = est.EstimateJoinRows(q_, s2);
        for (optimizer::JoinAlgo algo :
             {optimizer::JoinAlgo::kHash, optimizer::JoinAlgo::kNestLoop,
              optimizer::JoinAlgo::kMerge}) {
          best = std::min(best, left + right +
                                    cm.JoinCost(q_, algo, rows_l, rows_r,
                                                rows_out));
        }
        if (std::popcount(s2) == 1) {
          const AliasId inner = static_cast<AliasId>(std::countr_zero(s2));
          catalog::ColumnId probe = catalog::kInvalidColumn;
          if (cm.CanIndexNlj(q_, s1, inner, &probe)) {
            best = std::min(
                best, left + cm.JoinCost(q_, optimizer::JoinAlgo::kIndexNlj,
                                         rows_l, rows_r, rows_out, inner,
                                         probe));
          }
        }
      }
    }
    memo_[mask] = best;
    return best;
  }

 private:
  const optimizer::Planner& planner_;
  const Query& q_;
  std::unordered_map<AliasMask, double> memo_;
};

}  // namespace

bool ReferenceCount(const exec::DbContext& ctx, const Query& q,
                    int64_t work_cap, int64_t* rows) {
  const int32_t n = q.relation_count();
  int64_t work = 0;

  std::vector<std::vector<storage::RowId>> filtered(
      static_cast<size_t>(n));
  for (AliasId a = 0; a < n; ++a) {
    const storage::Table& table =
        ctx.table(q.relations[static_cast<size_t>(a)].table);
    const auto preds = query::BindAliasPredicates(q, a, table);
    work += table.row_count();
    if (work > work_cap) return false;
    for (storage::RowId r = 0; r < table.row_count(); ++r) {
      bool match = true;
      for (const auto& pred : preds) {
        if (!pred.Matches(table.column(pred.column).at(r))) {
          match = false;
          break;
        }
      }
      if (match) filtered[static_cast<size_t>(a)].push_back(r);
    }
  }

  // Join order: start from the smallest filtered list, extend by the
  // smallest connected unused alias (keeps the backtracking fan-out low).
  std::vector<AliasId> order;
  std::vector<char> used(static_cast<size_t>(n), 0);
  AliasId start = 0;
  for (AliasId a = 1; a < n; ++a) {
    if (filtered[static_cast<size_t>(a)].size() <
        filtered[static_cast<size_t>(start)].size()) {
      start = a;
    }
  }
  order.push_back(start);
  used[static_cast<size_t>(start)] = 1;
  AliasMask covered = query::MaskOf(start);
  while (static_cast<int32_t>(order.size()) < n) {
    AliasId next = -1;
    for (AliasId a = 0; a < n; ++a) {
      if (used[static_cast<size_t>(a)]) continue;
      if ((q.AdjacencyMask(a) & covered) == 0) continue;
      if (next < 0 || filtered[static_cast<size_t>(a)].size() <
                          filtered[static_cast<size_t>(next)].size()) {
        next = a;
      }
    }
    if (next < 0) return false;  // disconnected; not a fuzzer query
    order.push_back(next);
    used[static_cast<size_t>(next)] = 1;
    covered |= query::MaskOf(next);
  }

  std::vector<storage::RowId> assignment(static_cast<size_t>(n), -1);
  int64_t count = 0;
  std::function<bool(size_t)> extend = [&](size_t depth) {
    if (depth == order.size()) {
      ++count;
      return true;
    }
    const AliasId a = order[depth];
    const storage::Table& table =
        ctx.table(q.relations[static_cast<size_t>(a)].table);
    for (storage::RowId r : filtered[static_cast<size_t>(a)]) {
      if (++work > work_cap) return false;
      bool match = true;
      for (const query::JoinEdge& edge : q.edges) {
        AliasId other;
        catalog::ColumnId my_col, other_col;
        if (edge.left_alias == a) {
          other = edge.right_alias;
          my_col = edge.left_column;
          other_col = edge.right_column;
        } else if (edge.right_alias == a) {
          other = edge.left_alias;
          my_col = edge.right_column;
          other_col = edge.left_column;
        } else {
          continue;
        }
        const storage::RowId other_row =
            assignment[static_cast<size_t>(other)];
        if (other_row < 0) continue;  // joins later in the order
        const storage::Value mine = table.column(my_col).at(r);
        const storage::Value theirs =
            ctx.table(q.relations[static_cast<size_t>(other)].table)
                .column(other_col)
                .at(other_row);
        if (mine == storage::kNullValue || mine != theirs) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      assignment[static_cast<size_t>(a)] = r;
      const bool ok = extend(depth + 1);
      assignment[static_cast<size_t>(a)] = -1;
      if (!ok) return false;
    }
    return true;
  };
  if (!extend(0)) return false;
  *rows = count;
  return true;
}

DifferentialOracle::DifferentialOracle(engine::Database* db,
                                       faultlib::FaultPlan fault_plan)
    : db_(db), fault_plan_(std::move(fault_plan)) {
  LQOLAB_CHECK(db != nullptr);
}

void DifferentialOracle::AddLqoArm(lqo::LearnedOptimizer* arm) {
  LQOLAB_CHECK(arm != nullptr);
  arms_.push_back(arm);
}

std::vector<DifferentialOracle::ArmPlan> DifferentialOracle::BuildPlans(
    const Query& q, CheckReport* report) {
  const optimizer::Planner& planner = db_->planner();
  const engine::DbConfig& cfg = db_->config();
  std::vector<ArmPlan> plans;

  const PlanningResult dp =
      planner.PlanDynamicProgramming(q, cfg.enable_bushy);
  plans.push_back({"dp", dp.plan, dp.estimated_cost});

  if (q.relation_count() >= 2) {
    optimizer::GeqoParams params;
    params.seed = cfg.geqo_seed;
    params.pool_size = kGeqoPoolSize;
    params.generations = kGeqoGenerations;
    const PlanningResult geqo = planner.PlanGenetic(q, params);
    plans.push_back({"geqo", geqo.plan, geqo.estimated_cost});

    // Shuffled-hint arm: a random but query-deterministic connected join
    // order handed to the engine as a hint, the way an LQO would. Keyed
    // only on (seed, fingerprint) so a replayed reproducer exercises the
    // exact order that originally failed.
    util::Rng rng(util::MixSeed(kExecSeed, exec::QueryFingerprint(q)));
    const int32_t n = q.relation_count();
    std::vector<AliasId> order;
    order.push_back(static_cast<AliasId>(rng.UniformInt(0, n - 1)));
    AliasMask mask = query::MaskOf(order[0]);
    while (static_cast<int32_t>(order.size()) < n) {
      std::vector<AliasId> candidates;
      for (AliasId a = 0; a < n; ++a) {
        if ((mask & query::MaskOf(a)) == 0 &&
            (q.AdjacencyMask(a) & mask) != 0) {
          candidates.push_back(a);
        }
      }
      LQOLAB_CHECK(!candidates.empty());
      const AliasId pick = candidates[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(candidates.size()) - 1))];
      order.push_back(pick);
      mask |= query::MaskOf(pick);
    }
    ArmPlan shuffled;
    shuffled.name = "shuffled_hint";
    shuffled.estimated_cost =
        planner.CostJoinOrder(q, order, &shuffled.plan, nullptr);
    if (shuffled.estimated_cost >= kImpossibleCost) {
      report->discrepancies.push_back(
          {"cost_enumeration",
           "connected shuffled order costed as impossible for " + q.id});
    } else {
      plans.push_back(std::move(shuffled));
    }
  }

  for (lqo::LearnedOptimizer* arm : arms_) {
    lqo::Prediction prediction = arm->Plan(q, db_);
    // LQO costs are not comparable to planner costs; mark with -1 so cost
    // checks skip these plans.
    plans.push_back({arm->name(), std::move(prediction.plan), -1.0});
  }
  for (const ArmPlan& arm : plans) arm.plan.Validate(q);
  return plans;
}

void DifferentialOracle::CheckCostEnumeration(const Query& q,
                                              const std::vector<ArmPlan>& plans,
                                              CheckReport* report) {
  if (q.relation_count() > kExhaustiveMaxRelations) return;
  const optimizer::Planner& planner = db_->planner();
  ++report->checks.cost_enumeration;

  ExhaustiveCost reference(planner, q);
  const double best = reference.Best(q.FullMask());
  const PlanningResult dp_bushy = planner.PlanDynamicProgramming(q, true);
  if (!CostsClose(dp_bushy.estimated_cost, best)) {
    report->discrepancies.push_back(
        {"cost_enumeration",
         "DP cost " + FormatCost(dp_bushy.estimated_cost) +
             " != exhaustive optimum " + FormatCost(best) + " for " + q.id});
  }
  // The DP optimum lower-bounds every left-deep order costed by the same
  // model (GEQO's and the shuffled hint's plans are such orders).
  for (const ArmPlan& arm : plans) {
    if (arm.estimated_cost < 0.0 || arm.name == "dp") continue;
    if (arm.estimated_cost < dp_bushy.estimated_cost &&
        !CostsClose(arm.estimated_cost, dp_bushy.estimated_cost)) {
      report->discrepancies.push_back(
          {"cost_enumeration",
           arm.name + " cost " + FormatCost(arm.estimated_cost) +
               " beats the DP optimum " + FormatCost(dp_bushy.estimated_cost) +
               " for " + q.id});
    }
  }
}

void DifferentialOracle::CheckEstimatorInvariants(const Query& q,
                                                  CheckReport* report) {
  const stats::CardinalityEstimator& est = db_->planner().estimator();
  ++report->checks.estimator;
  auto flag = [&](const std::string& detail) {
    report->discrepancies.push_back({"estimator", detail + " for " + q.id});
  };

  for (AliasId a = 0; a < q.relation_count(); ++a) {
    const double rows = est.EstimateBaseRows(q, a);
    if (!std::isfinite(rows) || rows < 1.0) {
      flag("base rows " + FormatCost(rows) + " of alias " +
           q.relations[static_cast<size_t>(a)].alias);
    }
  }
  for (size_t i = 0; i < q.predicates.size(); ++i) {
    const double sel = est.PredicateSelectivity(q, q.predicates[i]);
    if (!std::isfinite(sel) || sel < 0.0 || sel > 1.0) {
      flag("predicate selectivity " + FormatCost(sel) + " of predicate " +
           q.predicates[i].Signature());
    }
    // Monotonicity under added conjuncts: dropping any predicate must not
    // shrink its alias's estimate.
    Query relaxed = q;
    relaxed.predicates.erase(relaxed.predicates.begin() +
                             static_cast<long>(i));
    const double with_pred = est.EstimateBaseRows(q, q.predicates[i].alias);
    const double without_pred =
        est.EstimateBaseRows(relaxed, q.predicates[i].alias);
    if (without_pred < with_pred * (1.0 - 1e-9)) {
      flag("base rows grew from " + FormatCost(without_pred) + " to " +
           FormatCost(with_pred) + " when adding conjunct " +
           q.predicates[i].Signature());
    }
  }
  for (const query::JoinEdge& edge : q.edges) {
    const double sel = est.EdgeSelectivity(q, edge);
    if (!std::isfinite(sel) || sel <= 0.0 || sel > 1.0) {
      flag("edge selectivity " + FormatCost(sel));
    }
  }
  const double join_rows = est.EstimateJoinRows(q, q.FullMask());
  if (!std::isfinite(join_rows) || join_rows < 1.0) {
    flag("join rows " + FormatCost(join_rows));
  }
}

void DifferentialOracle::CheckExecution(const Query& q,
                                        const std::vector<ArmPlan>& plans,
                                        CheckReport* report) {
  if (q.relation_count() > kExecMaxRelations) return;
  if (static_cast<int32_t>(q.edges.size()) > kExecMaxEdges) return;
  ++report->checks.execution;

  struct Outcome {
    std::string name;
    int64_t rows = 0;
  };
  std::vector<Outcome> outcomes;
  for (const ArmPlan& arm : plans) {
    // A fresh replica per plan: each execution recomputes cardinalities
    // through its own oracle along its own plan structure, so agreement is
    // a genuine cross-check rather than a memo hit.
    const std::unique_ptr<engine::Database> replica =
        db_->CloneContextForWorker();
    replica->BeginQueryReplay(kExecSeed, q);
    const engine::QueryRun run =
        replica->ExecutePlan(q, arm.plan, 0, kExecTimeoutNs);
    ++report->plans_executed;
    if (run.timed_out) {
      ++report->timeouts;
      continue;
    }
    outcomes.push_back({arm.name, run.result_rows});
  }
  if (outcomes.empty()) return;

  for (const Outcome& outcome : outcomes) {
    if (outcome.rows != outcomes.front().rows) {
      std::ostringstream os;
      os << "plans disagree on result rows for " << q.id << ":";
      for (const Outcome& o : outcomes) {
        os << " " << o.name << "=" << o.rows;
      }
      report->discrepancies.push_back({"execution", os.str()});
      break;
    }
  }

  int64_t reference = 0;
  if (ReferenceCount(db_->context(), q, kReferenceWorkCap, &reference)) {
    if (reference != outcomes.front().rows) {
      report->discrepancies.push_back(
          {"execution",
           "nested-loop reference count " + std::to_string(reference) +
               " != executed " + std::to_string(outcomes.front().rows) +
               " for " + q.id});
    }
  }

  // Engine differential: a fresh fuzz::ScalarOracle, the tuple-at-a-time
  // reference over the same context, counts the full mask, and the rows
  // the batched oracle executed must match it. A reference overflow is not
  // a discrepancy: the reference trips the caps on the logical rows it
  // writes, the product on the weighted frontier rows it stores, so the
  // product counts some subsets the reference overflows on.
  {
    ++report->checks.engine_differential;
    ScalarOracle reference(&db_->context());
    const exec::Oracle::CardResult card =
        reference.TrueJoinRows(q, q.FullMask());
    if (!card.overflow && card.rows != outcomes.front().rows) {
      report->discrepancies.push_back(
          {"engine_differential",
           "scalar reference oracle counted " + std::to_string(card.rows) +
               " rows != executed " + std::to_string(outcomes.front().rows) +
               " for " + q.id});
    }
  }

  // Replan differential: one plan re-runs with mid-query adaptive
  // re-optimization enabled, under a keyed estimator poison that forces
  // q-error divergences mid-plan. The cancel/replan/resume protocol
  // (Database::ExecutePlan under DbConfig::adaptive_replan) must never
  // change result rows — replans may only cost time, exactly like the
  // paper's timeout fallbacks.
  {  // The poison stays injected until this scope ends.
    ++report->checks.replan_differential;
    faultlib::FaultPlan poison;
    poison.name = "replan_twin";
    poison.seed = util::MixSeed(kExecSeed, exec::QueryFingerprint(q));
    faultlib::FaultRule rule;
    rule.point = "stats.estimate";
    rule.kind = faultlib::FaultKind::kPoison;
    rule.probability = 0.5;
    rule.poison_scale = 1e-4;
    poison.Add(rule);
    faultlib::FaultInjector injector(poison);
    faultlib::ScopedFaultInjection inject(&injector);

    const std::unique_ptr<engine::Database> replica =
        db_->CloneContextForWorker();
    engine::DbConfig adaptive = db_->config();
    adaptive.adaptive_replan = true;
    adaptive.replan_qerror_threshold = 4.0;
    adaptive.replan_min_rows = 1;
    replica->SetConfig(adaptive);
    replica->BeginQueryReplay(kExecSeed, q);
    const engine::QueryRun run =
        replica->ExecutePlan(q, plans.front().plan, 0, kExecTimeoutNs);
    ++report->plans_executed;
    if (run.timed_out) {
      ++report->timeouts;
    } else if (run.result_rows != outcomes.front().rows) {
      report->discrepancies.push_back(
          {"replan_differential",
           "adaptive replan (" + std::to_string(run.replans) +
               " rounds) reported " + std::to_string(run.result_rows) +
               " rows != " + std::to_string(outcomes.front().rows) + " for " +
               q.id});
    }
  }

  // Fault mode: replay every arm under injected faults. Faults are allowed
  // to cost availability (typed error, timeout) but never correctness — a
  // faulted run that completes must report the clean cardinality.
  if (fault_plan_.empty()) return;
  ++report->checks.fault_execution;
  faultlib::FaultPlan per_query = fault_plan_;
  per_query.seed = util::MixSeed(fault_plan_.seed, exec::QueryFingerprint(q));
  for (const ArmPlan& arm : plans) {
    faultlib::FaultInjector injector(per_query);
    faultlib::ScopedFaultInjection inject(&injector);
    const std::unique_ptr<engine::Database> replica =
        db_->CloneContextForWorker();
    replica->BeginQueryReplay(kExecSeed, q);
    const engine::QueryRun run =
        replica->ExecutePlan(q, arm.plan, 0, kExecTimeoutNs);
    ++report->plans_executed;
    if (!run.status.ok() || run.timed_out) continue;  // Availability loss.
    if (run.result_rows != outcomes.front().rows) {
      report->discrepancies.push_back(
          {"fault_execution",
           "injected faults changed result rows of " + q.id + " (" +
               arm.name + "): " + std::to_string(run.result_rows) +
               " != clean " + std::to_string(outcomes.front().rows)});
    }
  }
}

void DifferentialOracle::CheckPlanRoundTrips(const Query& q,
                                             const std::vector<ArmPlan>& plans,
                                             CheckReport* report) {
  serve::PlanCache cache({/*shards=*/1, /*capacity_per_shard=*/
                          static_cast<int64_t>(plans.size()) + 1});
  for (size_t i = 0; i < plans.size(); ++i) {
    const ArmPlan& arm = plans[i];

    ++report->checks.hint_roundtrip;
    const std::string hint = optimizer::RenderPlanHint(arm.plan, q);
    PhysicalPlan reparsed;
    std::string error;
    if (!optimizer::ParsePlanHint(hint, q, &reparsed, &error)) {
      report->discrepancies.push_back(
          {"hint_roundtrip",
           "hint '" + hint + "' failed to parse: " + error});
    } else if (!(reparsed == arm.plan)) {
      report->discrepancies.push_back(
          {"hint_roundtrip", "hint '" + hint +
                                 "' re-parsed to a different plan: " +
                                 optimizer::RenderPlanHint(reparsed, q)});
    }

    ++report->checks.plan_cache;
    // Distinct model_version per arm keeps the entries distinct even when
    // two arms produce the same plan.
    const uint64_t key = serve::PlanCacheKey(q, db_->config(), i);
    auto cached = std::make_shared<serve::CachedPlan>();
    cached->plan = arm.plan;
    cached->estimated_cost = arm.estimated_cost;
    cache.Insert(key, std::move(cached));
    const std::shared_ptr<const serve::CachedPlan> hit = cache.Lookup(key);
    if (hit == nullptr) {
      report->discrepancies.push_back(
          {"plan_cache", "lookup missed just-inserted plan of " + arm.name});
    } else if (!(hit->plan == arm.plan) ||
               optimizer::RenderPlanHint(hit->plan, q) != hint) {
      report->discrepancies.push_back(
          {"plan_cache", "cache hit is not byte-identical for " + arm.name});
    }
  }
}

void DifferentialOracle::CheckSqlRoundTrip(const Query& q,
                                           CheckReport* report) {
  ++report->checks.sql_round_trip;
  const catalog::Schema& schema = db_->schema();
  const std::string sql = q.ToSql(schema);
  Query rebound;
  const util::Status bound = sql::ParseAndBindSql(sql, schema, &rebound);
  if (!bound.ok()) {
    report->discrepancies.push_back(
        {"sql_round_trip",
         "rendered SQL failed to bind: " + bound.ToString() + "\n" + sql});
    return;
  }
  // The fingerprint hashes the id; the SQL text deliberately does not
  // carry it, so copy the identity before comparing.
  rebound.id = q.id;
  rebound.template_id = q.template_id;
  rebound.variant = q.variant;
  if (exec::QueryFingerprint(rebound) != exec::QueryFingerprint(q)) {
    report->discrepancies.push_back(
        {"sql_round_trip", "rebound query fingerprint diverged for " + q.id});
    return;
  }
  if (rebound.ToSql(schema) != sql) {
    report->discrepancies.push_back(
        {"sql_round_trip", "re-rendered SQL is not byte-identical for " +
                               q.id + "\nA: " + sql +
                               "\nB: " + rebound.ToSql(schema)});
    return;
  }
  // Plan byte-identity with the struct-built original. Both queries are
  // planned here, back to back: the cost model reads live buffer-cache
  // state (CachedFraction), so comparing against the DP arm planned before
  // CheckExecution warmed the cache would flag phantom divergences.
  const auto planned_struct = db_->PlanQuery(q);
  const auto planned_sql = db_->PlanQuery(rebound);
  if (!(planned_sql.plan == planned_struct.plan) ||
      planned_sql.plan.ToString(rebound) !=
          planned_struct.plan.ToString(q)) {
    report->discrepancies.push_back(
        {"sql_round_trip",
         "DP plan of the rebound query diverged for " + q.id});
  }
}

CheckReport DifferentialOracle::Check(const Query& q) {
  CheckReport report;
  const std::vector<ArmPlan> plans = BuildPlans(q, &report);
  CheckCostEnumeration(q, plans, &report);
  CheckEstimatorInvariants(q, &report);
  CheckExecution(q, plans, &report);
  CheckPlanRoundTrips(q, plans, &report);
  CheckSqlRoundTrip(q, &report);
  return report;
}

}  // namespace lqolab::fuzz
