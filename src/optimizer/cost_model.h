#ifndef LQOLAB_OPTIMIZER_COST_MODEL_H_
#define LQOLAB_OPTIMIZER_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "exec/db_context.h"
#include "optimizer/physical_plan.h"
#include "query/query.h"
#include "stats/cardinality_estimator.h"

namespace lqolab::optimizer {

/// Cost added to paths using a disabled operator (PostgreSQL's
/// disable_cost idea: the path remains usable as a last resort).
inline constexpr double kDisabledPathCost = 1.0e15;

/// Infinite cost marker for structurally impossible paths.
inline constexpr double kImpossibleCost = 1.0e30;

/// Result of costing a base-relation access path.
struct ScanChoice {
  ScanType type = ScanType::kSeq;
  catalog::ColumnId index_column = catalog::kInvalidColumn;
  double cost = kImpossibleCost;
};

/// The cost inputs that do not change during one planning call: the assumed
/// page costs (from CachedFraction), work_mem in bytes and the join
/// switches. A planning call derives them once; the single-shot
/// CostModel::ScanCost and JoinCost derive them per call.
struct CostConstants {
  double seq_page_cost = 0.0;
  double random_page_cost = 0.0;
  double work_mem_bytes = 0.0;
  bool enable_hashjoin = true;
  bool enable_nestloop = true;
  bool enable_mergejoin = true;
};

/// One index-NLJ candidate of a probed inner alias: a q.edges entry from
/// `neighbour` to an indexed column of the inner, with the index facts the
/// join cost reads.
struct IndexProbe {
  query::AliasMask neighbour = 0;
  catalog::ColumnId probe_column = catalog::kInvalidColumn;
  int32_t height = 0;
  /// Index entries per distinct key (1 without column statistics).
  double avg_matches = 1.0;
};

/// Planner cost model. Mirrors the executor's virtual-time formulas
/// (exec/cost_constants.h) but evaluates them over ESTIMATED cardinalities
/// and an assumed cache-residency fraction derived from
/// effective_cache_size — so estimated costs and measured latencies live on
/// the same scale, yet diverge exactly where the estimator errs.
class CostModel {
 public:
  CostModel(const exec::DbContext* ctx,
            const stats::CardinalityEstimator* estimator);

  /// Cost of scanning `alias` with a specific scan type. Returns
  /// kImpossibleCost if the type is not applicable (no usable index /
  /// predicate); adds kDisabledPathCost if disabled by configuration.
  ScanChoice ScanCost(const query::Query& q, query::AliasId alias,
                      ScanType type) const;

  /// Cheapest allowed access path for `alias` under the current config.
  ScanChoice BestScan(const query::Query& q, query::AliasId alias) const;

  /// Cost of joining estimated inputs with `algo`, excluding child costs.
  /// For kIndexNlj, `inner_alias`/`probe_column` identify the probed base
  /// relation and its index (from CanIndexNlj); the inner's scan cost is
  /// not charged (the probe replaces it). Other algorithms ignore them.
  /// Derives the inputs of the static overload below and calls it.
  double JoinCost(const query::Query& q, JoinAlgo algo, double rows_left,
                  double rows_right, double rows_out,
                  query::AliasId inner_alias = -1,
                  catalog::ColumnId probe_column =
                      catalog::kInvalidColumn) const;

  /// The join-cost arithmetic. `probe` is the probed index for kIndexNlj
  /// (kImpossibleCost when null) and is ignored by the other algorithms.
  static double JoinCost(const CostConstants& k, JoinAlgo algo,
                         double rows_left, double rows_right, double rows_out,
                         const IndexProbe* probe = nullptr);

  /// Whether an index-NLJ with `inner` as the probed side is structurally
  /// possible (inner is a single base relation with an index on some edge
  /// column towards `outer_mask`). Returns the probe column of the first
  /// such edge in q.edges order.
  bool CanIndexNlj(const query::Query& q, query::AliasMask outer_mask,
                   query::AliasId inner, catalog::ColumnId* probe_column) const;

  /// Every index-NLJ candidate of `inner`, in q.edges order.
  std::vector<IndexProbe> IndexProbes(const query::Query& q,
                                      query::AliasId inner) const;

  /// The first of `probes` whose neighbour is in `outer_mask`: the edge
  /// CanIndexNlj picks. Null when there is none.
  static const IndexProbe* FirstProbe(const std::vector<IndexProbe>& probes,
                                      query::AliasMask outer_mask);

  /// Page costs, work_mem and join switches under the current config.
  CostConstants Constants() const;

  /// Fraction of pages the planner assumes to be cached, from
  /// effective_cache_size relative to the total database size.
  double CachedFraction() const;

  const stats::CardinalityEstimator& estimator() const { return *estimator_; }

 private:
  /// Constants() without the page costs: all that a hash, nested-loop or
  /// merge join reads.
  CostConstants JoinConstants() const;
  IndexProbe ProbeFacts(catalog::TableId table, catalog::ColumnId column,
                        const storage::Index& index) const;

  const exec::DbContext* ctx_;
  const stats::CardinalityEstimator* estimator_;
};

}  // namespace lqolab::optimizer

#endif  // LQOLAB_OPTIMIZER_COST_MODEL_H_
