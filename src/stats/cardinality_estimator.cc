#include "stats/cardinality_estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "faultlib/faultlib.h"
#include "util/check.h"
#include "util/rng.h"

namespace lqolab::stats {

using query::AliasId;
using query::AliasMask;
using query::JoinEdge;
using query::Predicate;
using query::Query;

namespace {

/// Join selectivities must be finite and strictly positive: a NaN (missing
/// stats combined with a poisoned join_selectivity_scale) would propagate
/// through every cost comparison, and a hard zero erases the base
/// cardinalities it multiplies, collapsing whole subplans to one row. NaN
/// falls back to the uninformative 1.0; zero clamps to the smallest normal
/// double — far below any selectivity real statistics can produce, so no
/// legitimate estimate is perturbed.
double ClampJoinSelectivity(double s) {
  if (std::isnan(s)) return 1.0;
  return std::min(1.0, std::max(std::numeric_limits<double>::min(), s));
}

}  // namespace

CardinalityEstimator::CardinalityEstimator(const exec::DbContext* ctx)
    : ctx_(ctx) {
  LQOLAB_CHECK(ctx != nullptr);
}

double CardinalityEstimator::PredicateSelectivity(const Query& q,
                                                  const Predicate& pred) const {
  const catalog::TableId table_id =
      q.relations[static_cast<size_t>(pred.alias)].table;
  const storage::Table& table = ctx_->table(table_id);
  const ColumnStats& cs = ctx_->column_stats(table_id, pred.column);
  const query::BoundPredicate bound = query::BindPredicate(pred, table);
  switch (pred.kind) {
    case Predicate::Kind::kIsNull:
      return cs.NullSelectivity();
    case Predicate::Kind::kNotNull:
      return cs.NotNullSelectivity();
    case Predicate::Kind::kRange:
      return cs.RangeSelectivity(bound.lo, bound.hi);
    case Predicate::Kind::kEq:
    case Predicate::Kind::kIn:
    case Predicate::Kind::kLikePrefix:
      // The bound form is the expanded membership set, so the estimate
      // sees exactly the dictionary codes the prefix matches.
      return cs.InSelectivity(bound.values);
  }
  return 1.0;
}

double CardinalityEstimator::EstimateBaseRows(const Query& q,
                                              AliasId alias) const {
  return QueryEstimates(*this, q).BaseRows(alias);
}

double CardinalityEstimator::EdgeSelectivity(const Query& q,
                                             const JoinEdge& edge) const {
  // PostgreSQL's eqjoinsel: match the MCV lists of both sides exactly, then
  // assume uniformity over the remaining distincts. This captures joins
  // onto Zipf-skewed foreign keys far better than 1/max(nd).
  const catalog::TableId lt =
      q.relations[static_cast<size_t>(edge.left_alias)].table;
  const catalog::TableId rt =
      q.relations[static_cast<size_t>(edge.right_alias)].table;
  const ColumnStats& ls = ctx_->column_stats(lt, edge.left_column);
  const ColumnStats& rs = ctx_->column_stats(rt, edge.right_column);
  const double scale = ctx_->config.join_selectivity_scale;

  if (ctx_->config.estimator_mode == engine::EstimatorMode::kNoMcvJoins) {
    // Ablation: plain 1/max(nd) with null-fraction correction.
    const double nd = std::max<double>(
        1.0, static_cast<double>(std::max(ls.n_distinct, rs.n_distinct)));
    return ClampJoinSelectivity(scale * ls.NotNullSelectivity() *
                                rs.NotNullSelectivity() / nd);
  }

  double matched = 0.0;
  double matched_l = 0.0;
  double matched_r = 0.0;
  for (size_t i = 0; i < ls.mcv_values.size(); ++i) {
    for (size_t j = 0; j < rs.mcv_values.size(); ++j) {
      if (ls.mcv_values[i] == rs.mcv_values[j]) {
        matched += ls.mcv_freqs[i] * rs.mcv_freqs[j];
        matched_l += ls.mcv_freqs[i];
        matched_r += rs.mcv_freqs[j];
        break;
      }
    }
  }
  const double rest_l =
      std::max(0.0, ls.NotNullSelectivity() - matched_l);
  const double rest_r =
      std::max(0.0, rs.NotNullSelectivity() - matched_r);
  const double rest_nd = std::max(
      1.0, static_cast<double>(std::max(ls.n_distinct, rs.n_distinct)) -
               static_cast<double>(
                   std::min(ls.mcv_values.size(), rs.mcv_values.size())));
  return ClampJoinSelectivity(scale * (matched + rest_l * rest_r / rest_nd));
}

double CardinalityEstimator::EstimateJoinRows(const Query& q,
                                              AliasMask mask) const {
  return QueryEstimates(*this, q).JoinRows(mask);
}

QueryEstimates::QueryEstimates(const CardinalityEstimator& estimator,
                               const Query& q)
    : estimator_(estimator),
      ctx_(*estimator.ctx_),
      q_(q),
      base_rows_(static_cast<size_t>(q.relation_count()), -1.0),
      edge_selectivity_(q.edges.size(), -1.0),
      adjacency_(static_cast<size_t>(q.relation_count()), 0),
      incident_begin_(static_cast<size_t>(q.relation_count()) + 1, 0) {
  for (const JoinEdge& edge : q.edges) {
    adjacency_[static_cast<size_t>(edge.left_alias)] |=
        query::MaskOf(edge.right_alias);
    adjacency_[static_cast<size_t>(edge.right_alias)] |=
        query::MaskOf(edge.left_alias);
  }
  // Per-alias lists of incident edge indices (CSR), each in q.edges order:
  // count, take running ends, then fill back to front so each list's
  // cursor comes to rest at its start.
  for (const JoinEdge& edge : q.edges) {
    ++incident_begin_[static_cast<size_t>(edge.left_alias)];
    ++incident_begin_[static_cast<size_t>(edge.right_alias)];
  }
  for (size_t a = 1; a < incident_begin_.size(); ++a) {
    incident_begin_[a] += incident_begin_[a - 1];
  }
  incident_edges_.resize(incident_begin_.back());
  for (size_t e = q.edges.size(); e-- > 0;) {
    const uint32_t index = static_cast<uint32_t>(e);
    incident_edges_[--incident_begin_[static_cast<size_t>(
        q.edges[e].left_alias)]] = index;
    incident_edges_[--incident_begin_[static_cast<size_t>(
        q.edges[e].right_alias)]] = index;
  }
}

double QueryEstimates::BaseRows(AliasId alias) {
  double& memo = base_rows_[static_cast<size_t>(alias)];
  if (memo >= 0.0) return memo;
  if (ctx_.card_pins != nullptr) {
    const double pinned = ctx_.card_pins->Lookup(query::MaskOf(alias));
    if (pinned >= 0.0) return memo = pinned;
  }
  const catalog::TableId table_id =
      q_.relations[static_cast<size_t>(alias)].table;
  double rows = static_cast<double>(ctx_.table(table_id).row_count());
  for (const Predicate* pred : q_.PredicatesFor(alias)) {
    rows *= estimator_.PredicateSelectivity(q_, *pred);
  }
  return memo = std::max(1.0, rows);
}

double QueryEstimates::EdgeSelectivity(size_t edge) {
  double& memo = edge_selectivity_[edge];
  if (memo < 0.0) memo = estimator_.EdgeSelectivity(q_, q_.edges[edge]);
  return memo;
}

double QueryEstimates::JoinRows(AliasMask mask) {
  // Pinned observed truths (adaptive replan) win over everything, including
  // an armed poison schedule: a re-plan must see ground truth for the
  // prefix it already paid for.
  if (ctx_.card_pins != nullptr) {
    const double pinned = ctx_.card_pins->Lookup(mask);
    if (pinned >= 0.0) return pinned;
  }
  const auto it = raw_join_rows_.find(mask);
  double rows = it != raw_join_rows_.end()
                    ? it->second
                    : raw_join_rows_.emplace(mask, RawJoinRows(mask))
                          .first->second;
  if (faultlib::Current() != nullptr) {
    // Key = (query identity, alias subset): every estimate of the same
    // subset of the same query gets the same decision in any schedule, so
    // poisoned planning is reproducible across worker counts.
    uint64_t key = 1469598103934665603ull;  // FNV-1a over the query id.
    for (const char c : q_.id) {
      key ^= static_cast<uint8_t>(c);
      key *= 1099511628211ull;
    }
    key = util::MixSeed(
        key, (static_cast<uint64_t>(static_cast<uint32_t>(q_.template_id))
              << 32) |
                 mask);
    const auto fault = LQOLAB_FAULT_POINT_KEYED("stats.estimate", key);
    if (fault.is_poison()) {
      rows = std::max(1.0, rows * fault.poison_scale);
    }
  }
  return rows;
}

double QueryEstimates::RawJoinRows(AliasMask mask) {
  const Query& q = q_;
  if (ctx_.config.estimator_mode == engine::EstimatorMode::kNaiveProduct) {
    // Ablation: the naive full-product formula whose deep-chain collapse
    // degenerates plan choice (DESIGN.md design decision 2).
    double rows = 1.0;
    for (AliasId a = 0; a < q.relation_count(); ++a) {
      if (mask & query::MaskOf(a)) rows *= BaseRows(a);
    }
    for (size_t e = 0; e < q.edges.size(); ++e) {
      const JoinEdge& edge = q.edges[e];
      if ((mask & query::MaskOf(edge.left_alias)) &&
          (mask & query::MaskOf(edge.right_alias))) {
        // Clamp after every edge, not once at the end: applying a dozen
        // selectivities at once can underflow the running product to 0,
        // which a final max(1, ...) would then freeze at exactly one row
        // regardless of the base cardinalities.
        rows = std::max(1.0, rows * EdgeSelectivity(e));
      }
    }
    return rows;
  }
  // Stepwise estimate in the spirit of calc_joinrel_size_estimate: grow the
  // subset one relation at a time (largest filtered base last, mirroring
  // the oracle's evaluation order), clamping at >= 1 row after every step.
  // This avoids the catastrophic collapse of the naive full-product formula
  // on deep join chains while keeping the independence assumptions that
  // make the estimator realistically wrong on correlated data.
  // A mask has at most one member per AliasMask bit, so the working sets
  // live on the stack.
  constexpr size_t kMaxMembers = std::numeric_limits<AliasMask>::digits;
  AliasId members[kMaxMembers] = {};
  double base[kMaxMembers] = {};
  bool used[kMaxMembers] = {};
  size_t count = 0;
  for (AliasId a = 0; a < q.relation_count(); ++a) {
    if (mask & query::MaskOf(a)) members[count++] = a;
  }
  if (count == 0) return 1.0;
  for (size_t i = 0; i < count; ++i) {
    base[i] = BaseRows(members[i]);
  }
  // Start from the smallest base that keeps connectivity as we extend.
  size_t start = 0;
  for (size_t i = 1; i < count; ++i) {
    if (base[i] < base[start]) start = i;
  }
  used[start] = true;
  AliasMask covered = query::MaskOf(members[start]);
  double rows = base[start];
  for (size_t step = 1; step < count; ++step) {
    // Next: the smallest unused base connected to the covered set.
    size_t next = count;
    for (size_t i = 0; i < count; ++i) {
      if (used[i]) continue;
      if ((Adjacency(members[i]) & covered) == 0) continue;
      if (next == count || base[i] < base[next]) next = i;
    }
    if (next == count) {
      // Disconnected subset (cross product): multiply sizes.
      for (size_t i = 0; i < count; ++i) {
        if (!used[i]) {
          rows *= base[i];
          used[i] = true;
          covered |= query::MaskOf(members[i]);
        }
      }
      break;
    }
    rows *= base[next];
    const AliasId next_alias = members[next];
    const AliasMask next_bit = query::MaskOf(next_alias);
    // Only edges incident to the new alias can join it to the covered set;
    // its list keeps q.edges order, so selectivities apply in that order.
    const size_t incident_end =
        incident_begin_[static_cast<size_t>(next_alias) + 1];
    for (size_t k = incident_begin_[static_cast<size_t>(next_alias)];
         k < incident_end; ++k) {
      const uint32_t e = incident_edges_[k];
      const JoinEdge& edge = q.edges[e];
      const AliasId other =
          edge.left_alias == next_alias ? edge.right_alias : edge.left_alias;
      if (query::MaskOf(other) & covered) {
        // Per-edge clamp, as above: cliques connect each new relation to
        // the whole covered set, and multiplying all of those edge
        // selectivities before clamping can underflow to 0.
        rows = std::max(1.0, rows * EdgeSelectivity(e));
      }
    }
    used[next] = true;
    covered |= next_bit;
  }
  return std::max(1.0, rows);
}

}  // namespace lqolab::stats
