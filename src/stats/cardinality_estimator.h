#ifndef LQOLAB_STATS_CARDINALITY_ESTIMATOR_H_
#define LQOLAB_STATS_CARDINALITY_ESTIMATOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "exec/db_context.h"
#include "query/predicate_binding.h"
#include "query/query.h"

namespace lqolab::stats {

/// PostgreSQL-style cardinality estimator: per-column statistics with
/// attribute-independence and join-uniformity assumptions. The estimator is
/// deliberately "classical" — on the correlated synthetic data it makes the
/// same kinds of errors the paper's PostgreSQL baseline makes on IMDB, which
/// is the gap learned optimizers try to exploit.
///
/// A join estimate passes through three layers, in this order, on every
/// call:
///   1. Pinned truths — when the owning DbContext carries CardinalityPins
///      (installed by the adaptive replan loop), a pinned mask returns its
///      observed row count directly, bypassing both the formula and any
///      armed poison. Pinned singletons also stand in for the filtered base
///      rows the formula multiplies.
///   2. The raw stepwise estimate — the formula itself, computed once per
///      (query, alias mask) within one QueryEstimates memo.
///   3. The keyed "stats.estimate" fault point — a kPoison rule scales the
///      estimate by its poison_scale, deterministically per (query, mask)
///      regardless of thread interleaving (FaultInjector::HitKeyed). It is
///      hit on every unpinned JoinRows call, memoized or not; how many calls
///      a plan takes is the caller's (the planner's GEQO resumes children
///      from a parent's costed prefix without estimating it again), so hit
///      counts follow the planner while each decision depends only on
///      (query, mask).
///
/// The per-query entry points below are single-shot wrappers over a fresh
/// QueryEstimates; callers that estimate many subsets of one query (the
/// planner) hold one QueryEstimates for the whole call instead.
class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(const exec::DbContext* ctx);

  /// Selectivity of one predicate on its alias's table.
  double PredicateSelectivity(const query::Query& q,
                              const query::Predicate& pred) const;

  /// Estimated row count of `alias` after all its filters (independence
  /// across predicates; >= 1), or its pinned truth.
  double EstimateBaseRows(const query::Query& q, query::AliasId alias) const;

  /// Selectivity of an equi-join edge: PostgreSQL's eqjoinsel over the MCV
  /// lists (1/max(nd) with null-fraction correction under kNoMcvJoins).
  double EdgeSelectivity(const query::Query& q,
                         const query::JoinEdge& edge) const;

  /// Estimated cardinality of the join over a connected subset (>= 1
  /// unless pinned); see QueryEstimates::JoinRows.
  double EstimateJoinRows(const query::Query& q, query::AliasMask mask) const;

 private:
  friend class QueryEstimates;

  const exec::DbContext* ctx_;
};

/// Per-query estimate memo for one planning call. Built on the stack from
/// an estimator and a query, it fills lazily: filtered base rows per alias,
/// EdgeSelectivity per q.edges entry, and the raw stepwise join estimate
/// per alias mask (the adjacency mask per alias is filled on construction).
/// Pins and poison are applied on every JoinRows call, so a memo changes
/// no estimate, fault-point hit or fire — it only stops repeating the
/// predicate binding, MCV scans and dictionary sweeps behind each one.
///
/// Holds references to both arguments; the context's configuration and
/// pins must not change while it lives (one planning call).
class QueryEstimates {
 public:
  QueryEstimates(const CardinalityEstimator& estimator,
                 const query::Query& q);

  QueryEstimates(const QueryEstimates&) = delete;
  QueryEstimates& operator=(const QueryEstimates&) = delete;

  /// CardinalityEstimator::EstimateBaseRows, memoized.
  double BaseRows(query::AliasId alias);

  /// Pinned truth, else the memoized raw estimate scaled by any poison
  /// fired by the keyed "stats.estimate" fault point.
  double JoinRows(query::AliasMask mask);

  /// Query::AdjacencyMask, precomputed.
  query::AliasMask Adjacency(query::AliasId alias) const {
    return adjacency_[static_cast<size_t>(alias)];
  }

 private:
  double EdgeSelectivity(size_t edge);
  /// The unpinned, unpoisoned stepwise estimate.
  double RawJoinRows(query::AliasMask mask);

  const CardinalityEstimator& estimator_;
  const exec::DbContext& ctx_;
  const query::Query& q_;
  /// Negative until computed (base rows are >= 0, selectivities > 0).
  std::vector<double> base_rows_;
  std::vector<double> edge_selectivity_;
  std::vector<query::AliasMask> adjacency_;
  /// Edges incident to alias a: incident_edges_[incident_begin_[a],
  /// incident_begin_[a + 1]), ascending q.edges indices.
  std::vector<uint32_t> incident_begin_;
  std::vector<uint32_t> incident_edges_;
  std::unordered_map<query::AliasMask, double> raw_join_rows_;
};

}  // namespace lqolab::stats

#endif  // LQOLAB_STATS_CARDINALITY_ESTIMATOR_H_
