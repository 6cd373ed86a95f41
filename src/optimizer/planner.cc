#include "optimizer/planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "exec/cost_constants.h"  // Spooled-intermediate re-read pricing.
#include "exec/oracle.h"          // QueryFingerprint for GEQO seeding.
#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"

namespace lqolab::optimizer {

using query::AliasId;
using query::AliasMask;
using query::Query;

namespace {

/// Probability that a GEQO crossover child gets one random swap.
constexpr double kGeqoMutationRate = 0.15;

/// DP table entry for one connected subset.
struct DpEntry {
  bool valid = false;
  double cost = kImpossibleCost;
  double rows = 0.0;
  // Join reconstruction.
  AliasMask left = 0;
  AliasMask right = 0;
  JoinAlgo algo = JoinAlgo::kHash;
  catalog::ColumnId probe_column = catalog::kInvalidColumn;
  // Scan reconstruction (singletons).
  ScanChoice scan;
};

/// Re-read cost of a spooled intermediate for `mask`, or kImpossibleCost
/// when none exists. During adaptive re-planning (docs/overload.md) the
/// subsets an abandoned attempt materialized are readable at per-tuple
/// spool cost instead of being recomputed, and a plan whose subtree covers
/// exactly such a mask executes as that cheap read (exec/executor.cc).
double SpoolReadCost(const exec::DbContext* ctx, AliasMask mask) {
  if (ctx->spooled == nullptr) return kImpossibleCost;
  const auto it = ctx->spooled->find(mask);
  if (it == ctx->spooled->end()) return kImpossibleCost;
  return static_cast<double>(it->second) *
         static_cast<double>(exec::cost::kScanTupleNs);
}

int32_t BuildPlanFromDp(const std::vector<DpEntry>& dp, const Query& q,
                        AliasMask mask, PhysicalPlan* plan) {
  const DpEntry& entry = dp[mask];
  LQOLAB_CHECK(entry.valid);
  if (std::popcount(mask) == 1) {
    const AliasId alias = static_cast<AliasId>(std::countr_zero(mask));
    return plan->AddScan(alias, entry.scan.type, entry.scan.index_column);
  }
  const int32_t left = BuildPlanFromDp(dp, q, entry.left, plan);
  int32_t right;
  if (entry.algo == JoinAlgo::kIndexNlj) {
    const AliasId inner =
        static_cast<AliasId>(std::countr_zero(entry.right));
    right = plan->AddScan(inner, ScanType::kIndex, entry.probe_column);
  } else {
    right = BuildPlanFromDp(dp, q, entry.right, plan);
  }
  return plan->AddJoin(entry.algo, left, right);
}

}  // namespace

class Planner::CallState {
 public:
  CallState(const Planner& planner, const Query& q)
      : est(planner.estimator_, q),
        q(q),
        constants(planner.cost_model_.Constants()),
        cost_model_(planner.cost_model_),
        scans_(static_cast<size_t>(q.relation_count())),
        probes_(static_cast<size_t>(q.relation_count())),
        probes_filled_(static_cast<size_t>(q.relation_count()), 0) {}

  /// CostModel::BestScan, memoized.
  const ScanChoice& BestScan(AliasId alias) {
    ScanChoice& scan = scans_[static_cast<size_t>(alias)];
    // BestScan never returns kImpossibleCost, so it marks "not yet".
    if (scan.cost >= kImpossibleCost) scan = cost_model_.BestScan(q, alias);
    return scan;
  }

  /// The index `inner` is probed through under an index-NLJ with outer side
  /// `outer` (CostModel::CanIndexNlj's edge), or null when there is none.
  /// Each alias's CostModel::IndexProbes list is derived on first use.
  const IndexProbe* IndexProbeFor(AliasMask outer, AliasId inner) {
    const size_t i = static_cast<size_t>(inner);
    if (!probes_filled_[i]) {
      probes_[i] = cost_model_.IndexProbes(q, inner);
      probes_filled_[i] = 1;
    }
    return CostModel::FirstProbe(probes_[i], outer);
  }

  /// CostModel::JoinCost under this call's constants.
  double JoinCost(JoinAlgo algo, double rows_left, double rows_right,
                  double rows_out, const IndexProbe* probe = nullptr) const {
    return CostModel::JoinCost(constants, algo, rows_left, rows_right,
                               rows_out, probe);
  }

  stats::QueryEstimates est;
  const Query& q;
  const CostConstants constants;

 private:
  const CostModel& cost_model_;
  std::vector<ScanChoice> scans_;
  std::vector<std::vector<IndexProbe>> probes_;
  std::vector<char> probes_filled_;
};

Planner::Planner(const exec::DbContext* ctx)
    : ctx_(ctx), estimator_(ctx), cost_model_(ctx, &estimator_) {}

PlanningResult Planner::Plan(const Query& q) const {
  obs::Count(obs::Counter::kPlannerInvocations);
  CallState s(*this, q);
  const auto& cfg = ctx_->config;
  if (q.relation_count() >= 2 && cfg.join_collapse_limit <= 1) {
    // Join order follows the FROM clause.
    std::vector<AliasId> order(static_cast<size_t>(q.relation_count()));
    for (AliasId a = 0; a < q.relation_count(); ++a) {
      order[static_cast<size_t>(a)] = a;
    }
    PlanningResult result;
    result.estimated_cost =
        CostJoinOrder(s, order, 0, nullptr, &result.plan,
                      &result.planner_steps);
    LQOLAB_CHECK_LT(result.estimated_cost, kImpossibleCost);
    return result;
  }
  if (cfg.geqo && q.relation_count() >= cfg.geqo_threshold) {
    GeqoParams params;
    params.seed = cfg.geqo_seed;
    return PlanGenetic(s, params);
  }
  return PlanDynamicProgramming(s, cfg.enable_bushy);
}

PlanningResult Planner::PlanDynamicProgramming(const Query& q,
                                               bool bushy) const {
  CallState s(*this, q);
  return PlanDynamicProgramming(s, bushy);
}

PlanningResult Planner::PlanDynamicProgramming(CallState& s,
                                               bool bushy) const {
  const Query& q = s.q;
  const int32_t n = q.relation_count();
  LQOLAB_CHECK_GE(n, 1);
  LQOLAB_CHECK_LE(n, 22);  // DP is exponential; GEQO covers larger queries.
  const AliasMask full = q.FullMask();
  std::vector<DpEntry> dp(static_cast<size_t>(full) + 1);
  PlanningResult result;

  // Base relations.
  for (AliasId a = 0; a < n; ++a) {
    DpEntry& entry = dp[query::MaskOf(a)];
    entry.valid = true;
    entry.scan = s.BestScan(a);
    entry.cost = std::min(entry.scan.cost,
                          SpoolReadCost(ctx_, query::MaskOf(a)));
    entry.rows = s.est.BaseRows(a);
    ++result.planner_steps;
  }

  for (AliasMask mask = 1; mask <= full; ++mask) {
    if (std::popcount(mask) < 2 || !q.IsConnected(mask)) continue;
    DpEntry& entry = dp[mask];
    const double rows_out = s.est.JoinRows(mask);

    auto consider = [&](AliasMask s1, AliasMask s2) {
      const DpEntry& left = dp[s1];
      const DpEntry& right = dp[s2];
      if (!left.valid || !right.valid) return;
      if (!q.HasEdgeBetween(s1, s2)) return;
      ++result.planner_steps;
      for (JoinAlgo algo :
           {JoinAlgo::kHash, JoinAlgo::kNestLoop, JoinAlgo::kMerge}) {
        const double cost =
            left.cost + right.cost +
            s.JoinCost(algo, left.rows, right.rows, rows_out);
        if (cost < entry.cost) {
          entry.valid = true;
          entry.cost = cost;
          entry.rows = rows_out;
          entry.left = s1;
          entry.right = s2;
          entry.algo = algo;
          entry.probe_column = catalog::kInvalidColumn;
        }
      }
      if (std::popcount(s2) == 1) {
        const AliasId inner = static_cast<AliasId>(std::countr_zero(s2));
        if (const IndexProbe* probe = s.IndexProbeFor(s1, inner)) {
          const double cost =
              left.cost + s.JoinCost(JoinAlgo::kIndexNlj, left.rows,
                                     right.rows, rows_out, probe);
          if (cost < entry.cost) {
            entry.valid = true;
            entry.cost = cost;
            entry.rows = rows_out;
            entry.left = s1;
            entry.right = s2;
            entry.algo = JoinAlgo::kIndexNlj;
            entry.probe_column = probe->probe_column;
          }
        }
      }
    };

    if (bushy) {
      // All connected complementary pairs; both (s1,s2) role orders come up
      // naturally as the submask enumeration visits each side.
      for (AliasMask s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
        const AliasMask s2 = mask ^ s1;
        if (s2 == 0) continue;
        consider(s1, s2);
      }
    } else {
      // Left-deep: extend by a single relation on the right; also consider
      // the single relation on the left for the first join.
      AliasMask bits = mask;
      while (bits != 0) {
        const AliasId alias = static_cast<AliasId>(std::countr_zero(bits));
        bits &= bits - 1;
        const AliasMask single = query::MaskOf(alias);
        const AliasMask rest = mask ^ single;
        consider(rest, single);
        if (std::popcount(rest) == 1) consider(single, rest);
      }
    }
    // A spooled intermediate makes this whole subset readable at re-read
    // cost; supersets (numerically larger masks) see the clamped value.
    if (entry.valid) {
      entry.cost = std::min(entry.cost, SpoolReadCost(ctx_, mask));
    }
  }

  const DpEntry& top = dp[full];
  LQOLAB_CHECK_MSG(top.valid, "no DP plan for " << q.id);
  result.estimated_cost = top.cost;
  if (n == 1) {
    result.plan.AddScan(0, top.scan.type, top.scan.index_column);
  } else {
    BuildPlanFromDp(dp, q, full, &result.plan);
  }
  result.plan.Validate(q);
  obs::Count(obs::Counter::kPlannerDpSubproblems, result.planner_steps);
  return result;
}

double Planner::CostJoinOrder(const Query& q,
                              const std::vector<AliasId>& order,
                              PhysicalPlan* plan_out, int64_t* steps) const {
  CallState s(*this, q);
  return CostJoinOrder(s, order, 0, nullptr, plan_out, steps);
}

double Planner::CostJoinOrder(CallState& s, const std::vector<AliasId>& order,
                              size_t resume, PrefixState* prefix,
                              PhysicalPlan* plan_out, int64_t* steps) const {
  const Query& q = s.q;
  LQOLAB_CHECK_EQ(order.size(), static_cast<size_t>(q.relation_count()));
  LQOLAB_CHECK_LE(resume, order.size());
  LQOLAB_CHECK(resume == 0 || (prefix != nullptr && plan_out == nullptr));
  // GEQO fitness passes no plan_out, so it costs orders without building
  // the plan nodes.
  PhysicalPlan plan;
  const bool build = plan_out != nullptr;
  int32_t current = -1;
  AliasMask mask = 0;
  double total;
  double rows_left;
  size_t i;
  if (resume == 0) {
    const ScanChoice& first = s.BestScan(order[0]);
    if (build) current = plan.AddScan(order[0], first.type, first.index_column);
    mask = query::MaskOf(order[0]);
    total = std::min(first.cost, SpoolReadCost(ctx_, mask));
    rows_left = s.est.BaseRows(order[0]);
    if (prefix != nullptr) prefix[0] = {total, rows_left};
    i = 1;
  } else {
    for (size_t j = 0; j < resume; ++j) mask |= query::MaskOf(order[j]);
    total = prefix[resume - 1].total;
    rows_left = prefix[resume - 1].rows;
    // The held prefix's join steps count as if costed again.
    if (steps != nullptr) *steps += static_cast<int64_t>(resume - 1);
    i = resume;
  }

  for (; i < order.size(); ++i) {
    const AliasId next = order[i];
    const AliasMask next_mask = query::MaskOf(next);
    if ((s.est.Adjacency(next) & mask) == 0) return kImpossibleCost;
    const double rows_right = s.est.BaseRows(next);
    const double rows_out = s.est.JoinRows(mask | next_mask);
    const ScanChoice& scan = s.BestScan(next);
    if (steps != nullptr) ++*steps;

    double best_cost = kImpossibleCost;
    JoinAlgo best_algo = JoinAlgo::kHash;
    for (JoinAlgo algo :
         {JoinAlgo::kHash, JoinAlgo::kNestLoop, JoinAlgo::kMerge}) {
      const double cost =
          scan.cost + s.JoinCost(algo, rows_left, rows_right, rows_out);
      if (cost < best_cost) {
        best_cost = cost;
        best_algo = algo;
      }
    }
    const IndexProbe* probe = s.IndexProbeFor(mask, next);
    if (probe != nullptr) {
      const double cost = s.JoinCost(JoinAlgo::kIndexNlj, rows_left,
                                     rows_right, rows_out, probe);
      if (cost < best_cost) {
        best_cost = cost;
        best_algo = JoinAlgo::kIndexNlj;
      }
    }
    if (build) {
      const int32_t right =
          best_algo == JoinAlgo::kIndexNlj
              ? plan.AddScan(next, ScanType::kIndex, probe->probe_column)
              : plan.AddScan(next, scan.type, scan.index_column);
      current = plan.AddJoin(best_algo, current, right);
    }
    total += best_cost;
    mask |= next_mask;
    // A spooled intermediate covering the prefix replaces everything paid
    // so far with one cheap re-read (the executor elides the subtree).
    total = std::min(total, SpoolReadCost(ctx_, mask));
    rows_left = rows_out;
    if (prefix != nullptr) prefix[i] = {total, rows_left};
  }
  if (build) {
    plan.root = current;
    *plan_out = std::move(plan);
  }
  return total;
}

PlanningResult Planner::PlanGenetic(const Query& q,
                                    const GeqoParams& params) const {
  CallState s(*this, q);
  return PlanGenetic(s, params);
}

PlanningResult Planner::PlanGenetic(CallState& s,
                                    const GeqoParams& params) const {
  const Query& q = s.q;
  const int32_t n = q.relation_count();
  const size_t size = static_cast<size_t>(n);
  LQOLAB_CHECK_GE(n, 2);
  util::Rng rng(params.seed ^ exec::QueryFingerprint(q));
  PlanningResult result;
  result.used_geqo = true;

  // A random connected order: start anywhere, extend by a random adjacent
  // unvisited relation.
  std::vector<AliasId> candidates;
  candidates.reserve(size);
  auto random_order = [&](std::vector<AliasId>* order) {
    (*order)[0] = static_cast<AliasId>(rng.UniformInt(0, n - 1));
    AliasMask mask = query::MaskOf((*order)[0]);
    for (size_t len = 1; len < size; ++len) {
      candidates.clear();
      for (AliasId a = 0; a < n; ++a) {
        if ((mask & query::MaskOf(a)) == 0 &&
            (s.est.Adjacency(a) & mask) != 0) {
          candidates.push_back(a);
        }
      }
      LQOLAB_CHECK(!candidates.empty());
      const AliasId pick = candidates[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(candidates.size()) - 1))];
      (*order)[len] = pick;
      mask |= query::MaskOf(pick);
    }
  };

  // Turns a preference sequence into a valid connected order: repeatedly
  // take the earliest preferred relation adjacent to the current prefix.
  auto repair = [&](const std::vector<AliasId>& preference,
                    std::vector<AliasId>* order) {
    (*order)[0] = preference[0];
    AliasMask mask = query::MaskOf(preference[0]);
    // preference[0, first_free) are all taken, so each scan starts past
    // them: the child's prefix from parent A costs one test per step.
    size_t first_free = 1;
    for (size_t len = 1; len < size; ++len) {
      while ((mask & query::MaskOf(preference[first_free])) != 0) {
        ++first_free;
      }
      AliasId chosen = -1;
      for (size_t j = first_free; j < size; ++j) {
        const AliasId a = preference[j];
        if ((mask & query::MaskOf(a)) == 0 &&
            (s.est.Adjacency(a) & mask) != 0) {
          chosen = a;
          break;
        }
      }
      LQOLAB_CHECK_GE(chosen, 0);
      (*order)[len] = chosen;
      mask |= query::MaskOf(chosen);
    }
  };

  struct Individual {
    std::vector<AliasId> order;
    /// State after each position of `order` (CostJoinOrder's prefix).
    std::vector<PrefixState> prefix;
    double fitness = kImpossibleCost;
  };
  int64_t plans_costed = 0;
  // Costs `ind` from position `resume`, whose prefix states it holds.
  auto evaluate = [&](Individual* ind, size_t resume) {
    ind->fitness = CostJoinOrder(s, ind->order, resume, ind->prefix.data(),
                                 nullptr, &result.planner_steps);
    ++plans_costed;
  };

  std::vector<Individual> population(
      static_cast<size_t>(params.pool_size));
  for (auto& ind : population) {
    ind.order.resize(size);
    ind.prefix.resize(size);
    random_order(&ind.order);
    evaluate(&ind, 0);
  }
  auto by_fitness = [](const Individual& a, const Individual& b) {
    return a.fitness < b.fitness;
  };
  std::sort(population.begin(), population.end(), by_fitness);

  std::vector<AliasId> preference(size);
  for (int32_t gen = 0; gen < params.generations; ++gen) {
    const size_t survivors = population.size() / 2;
    for (size_t i = survivors; i < population.size(); ++i) {
      // Order crossover with connectivity repair: child prefers a prefix of
      // parent A, then parent B's order. Parents are survivors, so the
      // child overwrites a non-survivor's buffers in place.
      const Individual& pa =
          population[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(survivors) - 1))];
      const Individual& pb =
          population[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(survivors) - 1))];
      const size_t cut =
          static_cast<size_t>(rng.UniformInt(1, n - 1));
      AliasMask kept = 0;
      size_t len = 0;
      for (; len < cut; ++len) {
        preference[len] = pa.order[len];
        kept |= query::MaskOf(pa.order[len]);
      }
      for (AliasId a : pb.order) {
        if ((kept & query::MaskOf(a)) == 0) preference[len++] = a;
      }
      Individual& child = population[i];
      repair(preference, &child.order);
      if (rng.Uniform() < kGeqoMutationRate) {
        const size_t x = static_cast<size_t>(rng.UniformInt(0, n - 1));
        const size_t y = static_cast<size_t>(rng.UniformInt(0, n - 1));
        std::swap(child.order[x], child.order[y]);
        preference = child.order;
        repair(preference, &child.order);
      }
      // Resume from parent A's state at the end of the common prefix.
      size_t common = 0;
      while (common < size && child.order[common] == pa.order[common]) {
        ++common;
      }
      std::copy_n(pa.prefix.begin(), common, child.prefix.begin());
      evaluate(&child, common);
    }
    std::sort(population.begin(), population.end(), by_fitness);
  }

  const Individual& best = population.front();
  LQOLAB_CHECK_LT(best.fitness, kImpossibleCost);
  result.estimated_cost =
      CostJoinOrder(s, best.order, 0, nullptr, &result.plan, nullptr);
  result.plan.Validate(q);
  obs::Count(obs::Counter::kPlannerGeqoGenerations, params.generations);
  obs::Count(obs::Counter::kPlannerGeqoPlansCosted, plans_costed);
  return result;
}

double Planner::EstimatePlanCost(const Query& q,
                                 const PhysicalPlan& plan) const {
  LQOLAB_CHECK(!plan.empty());
  CallState s(*this, q);
  double total = 0.0;
  // Inner scans of index-NLJ joins are probed, not scanned.
  std::vector<char> skip(plan.nodes.size(), 0);
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    if (node.type == PlanNode::Type::kJoin && node.algo == JoinAlgo::kIndexNlj) {
      skip[static_cast<size_t>(node.right)] = 1;
    }
  }
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    if (node.type == PlanNode::Type::kScan) {
      if (skip[i]) continue;
      const ScanChoice choice = cost_model_.ScanCost(q, node.alias,
                                                     node.scan_type);
      if (choice.cost >= kImpossibleCost) return kImpossibleCost;
      total += choice.cost;
      continue;
    }
    const PlanNode& left = plan.node(node.left);
    const PlanNode& right = plan.node(node.right);
    const double rows_left = s.est.JoinRows(left.mask);
    const double rows_right = s.est.JoinRows(right.mask);
    const double rows_out = s.est.JoinRows(node.mask);
    const IndexProbe* probe = nullptr;
    if (node.algo == JoinAlgo::kIndexNlj) {
      LQOLAB_CHECK(right.type == PlanNode::Type::kScan);
      probe = s.IndexProbeFor(left.mask, right.alias);
      if (probe == nullptr) return kImpossibleCost;
    }
    total += s.JoinCost(node.algo, rows_left, rows_right, rows_out, probe);
  }
  return total;
}

}  // namespace lqolab::optimizer
