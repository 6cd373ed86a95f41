#include "lqo/plan_search.h"

#include <limits>

#include "lqo/value_net.h"
#include "util/check.h"

namespace lqolab::lqo {

using optimizer::JoinAlgo;
using optimizer::PhysicalPlan;
using optimizer::PlanNode;
using optimizer::ScanType;
using query::AliasId;
using query::Query;

PhysicalPlan CombinePlans(const PhysicalPlan& left, const PhysicalPlan& right,
                          JoinAlgo algo) {
  LQOLAB_CHECK(!left.empty());
  LQOLAB_CHECK(!right.empty());
  PhysicalPlan out;
  out.nodes = left.nodes;
  const int32_t offset = static_cast<int32_t>(left.nodes.size());
  for (PlanNode node : right.nodes) {
    if (node.type == PlanNode::Type::kJoin) {
      node.left += offset;
      node.right += offset;
    }
    out.nodes.push_back(node);
  }
  out.root = static_cast<int32_t>(out.nodes.size());
  PlanNode join;
  join.type = PlanNode::Type::kJoin;
  join.algo = algo;
  join.left = left.root;
  join.right = right.root + offset;
  join.mask = left.nodes[static_cast<size_t>(left.root)].mask |
              right.nodes[static_cast<size_t>(right.root)].mask;
  out.nodes.push_back(join);
  return out;
}

namespace {

/// Single-leaf plan with the cost model's preferred access path.
PhysicalPlan LeafPlan(const Query& q, const optimizer::CostModel& cost_model,
                      AliasId alias) {
  const optimizer::ScanChoice scan = cost_model.BestScan(q, alias);
  PhysicalPlan plan;
  plan.AddScan(alias, scan.type, scan.index_column);
  return plan;
}

/// Index-probe leaf used as the inner of an index nested-loop join.
PhysicalPlan IndexLeafPlan(AliasId alias, catalog::ColumnId probe_column) {
  PhysicalPlan plan;
  plan.AddScan(alias, ScanType::kIndex, probe_column);
  return plan;
}

bool IsSingleScan(const PhysicalPlan& plan) {
  return plan.nodes.size() == 1 &&
         plan.nodes[0].type == PlanNode::Type::kScan;
}

}  // namespace

SearchResult GreedyBottomUpSearch(const Query& q,
                                  const optimizer::CostModel& cost_model,
                                  const PlanScorer& scorer) {
  SearchResult result;
  std::vector<PhysicalPlan> fragments;
  fragments.reserve(static_cast<size_t>(q.relation_count()));
  for (AliasId a = 0; a < q.relation_count(); ++a) {
    fragments.push_back(LeafPlan(q, cost_model, a));
  }

  while (fragments.size() > 1) {
    double best_score = std::numeric_limits<double>::infinity();
    size_t best_i = 0;
    size_t best_j = 0;
    PhysicalPlan best_candidate;

    for (size_t i = 0; i < fragments.size(); ++i) {
      for (size_t j = 0; j < fragments.size(); ++j) {
        if (i == j) continue;
        const query::AliasMask mask_i =
            fragments[i].node(fragments[i].root).mask;
        const query::AliasMask mask_j =
            fragments[j].node(fragments[j].root).mask;
        if (!q.HasEdgeBetween(mask_i, mask_j)) continue;
        for (JoinAlgo algo :
             {JoinAlgo::kHash, JoinAlgo::kMerge, JoinAlgo::kNestLoop}) {
          PhysicalPlan candidate =
              CombinePlans(fragments[i], fragments[j], algo);
          const double score = scorer(candidate);
          ++result.evals;
          if (score < best_score) {
            best_score = score;
            best_i = i;
            best_j = j;
            best_candidate = std::move(candidate);
          }
        }
        // Index-NLJ: inner must be a lone base relation with an index.
        if (IsSingleScan(fragments[j])) {
          const AliasId inner = fragments[j].nodes[0].alias;
          catalog::ColumnId probe_column = catalog::kInvalidColumn;
          if (cost_model.CanIndexNlj(q, mask_i, inner, &probe_column)) {
            PhysicalPlan candidate =
                CombinePlans(fragments[i], IndexLeafPlan(inner, probe_column),
                             JoinAlgo::kIndexNlj);
            const double score = scorer(candidate);
            ++result.evals;
            if (score < best_score) {
              best_score = score;
              best_i = i;
              best_j = j;
              best_candidate = std::move(candidate);
            }
          }
        }
      }
    }
    LQOLAB_CHECK_MSG(best_score < std::numeric_limits<double>::infinity(),
                     "no joinable fragment pair in " << q.id);
    // Replace fragment i by the combination, erase fragment j.
    fragments[best_i] = std::move(best_candidate);
    fragments.erase(fragments.begin() + static_cast<long>(best_j));
  }
  result.plan = std::move(fragments[0]);
  result.plan.Validate(q);
  return result;
}

std::vector<AliasId> RepairOrder(const Query& q,
                                 const std::vector<AliasId>& preference) {
  LQOLAB_CHECK(!preference.empty());
  std::vector<AliasId> order;
  std::vector<char> used(static_cast<size_t>(q.relation_count()), 0);
  order.push_back(preference[0]);
  used[static_cast<size_t>(preference[0])] = 1;
  query::AliasMask mask = query::MaskOf(preference[0]);
  while (static_cast<int32_t>(order.size()) < q.relation_count()) {
    AliasId chosen = -1;
    for (AliasId a : preference) {
      if (!used[static_cast<size_t>(a)] && (q.AdjacencyMask(a) & mask) != 0) {
        chosen = a;
        break;
      }
    }
    if (chosen < 0) {
      // Preference list may be incomplete; fall back to any connectable.
      for (AliasId a = 0; a < q.relation_count(); ++a) {
        if (!used[static_cast<size_t>(a)] &&
            (q.AdjacencyMask(a) & mask) != 0) {
          chosen = a;
          break;
        }
      }
    }
    LQOLAB_CHECK_GE(chosen, 0);
    order.push_back(chosen);
    used[static_cast<size_t>(chosen)] = 1;
    mask |= query::MaskOf(chosen);
  }
  return order;
}

std::vector<AliasId> ExtendGreedily(const Query& q,
                                    std::vector<AliasId> prefix) {
  LQOLAB_CHECK(!prefix.empty());
  query::AliasMask mask = 0;
  for (AliasId a : prefix) mask |= query::MaskOf(a);
  while (static_cast<int32_t>(prefix.size()) < q.relation_count()) {
    AliasId next = -1;
    for (AliasId a = 0; a < q.relation_count(); ++a) {
      if ((mask & query::MaskOf(a)) == 0 &&
          (q.AdjacencyMask(a) & mask) != 0) {
        next = a;
        break;
      }
    }
    LQOLAB_CHECK_GE(next, 0);
    prefix.push_back(next);
    mask |= query::MaskOf(next);
  }
  return prefix;
}

PhysicalPlan RandomPlan(const Query& q, const optimizer::CostModel& cost_model,
                        TrainingStream* stream) {
  std::vector<PhysicalPlan> fragments;
  for (AliasId a = 0; a < q.relation_count(); ++a) {
    fragments.push_back(LeafPlan(q, cost_model, a));
  }
  while (fragments.size() > 1) {
    // Collect joinable pairs.
    std::vector<std::pair<size_t, size_t>> pairs;
    for (size_t i = 0; i < fragments.size(); ++i) {
      for (size_t j = 0; j < fragments.size(); ++j) {
        if (i == j) continue;
        if (q.HasEdgeBetween(fragments[i].node(fragments[i].root).mask,
                             fragments[j].node(fragments[j].root).mask)) {
          pairs.emplace_back(i, j);
        }
      }
    }
    LQOLAB_CHECK(!pairs.empty());
    const auto [i, j] = pairs[stream->Below(pairs.size())];
    constexpr JoinAlgo kAlgos[] = {JoinAlgo::kHash, JoinAlgo::kNestLoop,
                                   JoinAlgo::kMerge};
    const JoinAlgo algo = kAlgos[stream->Below(3)];
    PhysicalPlan combined = CombinePlans(fragments[i], fragments[j], algo);
    const size_t erase_at = j;
    fragments[i] = std::move(combined);
    fragments.erase(fragments.begin() + static_cast<long>(erase_at));
  }
  fragments[0].Validate(q);
  return fragments[0];
}

}  // namespace lqolab::lqo
