#ifndef LQOLAB_FUZZ_SCALAR_ORACLE_H_
#define LQOLAB_FUZZ_SCALAR_ORACLE_H_

#include <cstdint>
#include <vector>

#include "exec/oracle.h"

namespace lqolab::fuzz {

/// The tuple-at-a-time reference for exec::Oracle's batched kernels. It
/// overrides the oracle's three seam methods with the original code: a
/// row-at-a-time predicate loop (Filter), std::unordered_set semi-join
/// reduction rebuilt on every pass (SemiJoinReduce), and std::unordered_map
/// hash joins (Join) whose right side is hashed as full tuples, whether it
/// is a base — whole tables included — or a held intermediate. Its joins
/// write every result tuple in full — every alias of the subset, each row
/// at weight 1, never merged — and trip the caps row by row on those
/// logical rows, as the original did. The product's caps are decided on the
/// weighted frontier rows it stores instead, so it counts subsets the
/// reference overflows on; wherever the reference counts, the two must
/// agree. Everything else — the memo, the replica-wide base cache, which
/// held intermediates a subset is joined from, the caps' thresholds and
/// the eviction policy — is the product oracle's, so
/// the two must also agree on every filtered row set. Tests and
/// fuzz::DifferentialOracle build one over a database's context and compare
/// it with the database's own oracle; the other reference,
/// fuzz::ReferenceCount, shares no code with either.
class ScalarOracle final : public exec::Oracle {
 public:
  using exec::Oracle::Oracle;

  /// The materialized join over `mask` — row ids, one per alias of `mask`
  /// in ascending alias order, row-major — or nullptr when `mask` is not
  /// held (HoldsIntermediate).
  const std::vector<storage::RowId>* MaterializedTuples(const query::Query& q,
                                                        query::AliasMask mask);

 private:
  void Filter(catalog::TableId table, const query::BoundPredicate* preds,
              size_t pred_count, std::vector<storage::RowId>* rows) override;
  std::vector<std::vector<storage::RowId>> SemiJoinReduce(
      QueryMemo& memo, const query::Query& q, query::AliasMask mask) override;
  Intermediate Join(QueryMemo& memo, const query::Query& q,
                    const Intermediate& left, const JoinSide& right) override;
};

}  // namespace lqolab::fuzz

#endif  // LQOLAB_FUZZ_SCALAR_ORACLE_H_
