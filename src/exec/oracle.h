#ifndef LQOLAB_EXEC_ORACLE_H_
#define LQOLAB_EXEC_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/bloom.h"
#include "exec/db_context.h"
#include "exec/kernels.h"
#include "query/predicate_binding.h"
#include "query/query.h"

namespace lqolab::exec {

/// Stable fingerprint of a query's full structure (relations, edges,
/// predicates); used to key oracle memoization across repeated executions.
uint64_t QueryFingerprint(const query::Query& q);

/// True-cardinality oracle: computes the exact result sizes of filtered base
/// relations and of connected join subsets by actually evaluating them over
/// the data (hash joins over row-id tuples). Cardinalities and materialized
/// intermediates are memoized per query fingerprint, so repeated plan
/// executions during LQO training are cheap.
///
/// Filtered bases are shared per replica instead (docs/execution.md,
/// "Shared filtered bases"): one cache keyed by (table, canonical bound
/// predicates) holds each distinct filtered row list once, whatever alias,
/// query id or predicate order asks for it, and single-predicate lists are
/// the same cache's one-predicate entries. Next to each list, a read-only
/// build table per join column is kept once a second join asks for it
/// (second-touch admission); kept tables count against the
/// materialization budget and are the first thing evicted. Queries of
/// one workload family repeat their base filters, so each distinct base is
/// scanned once per replica. A cloned worker replica starts with empty
/// caches.
///
/// This is the core of the simulation substrate (DESIGN.md §4.1): the
/// executor charges virtual time as a function of TRUE cardinalities, while
/// the planner sees only the estimator — exactly the gap that separates good
/// plans from bad ones on the real system.
///
/// Two interchangeable engines implement the hot path (docs/execution.md):
/// the batch-at-a-time kernels of exec/kernels.h (DbConfig::vectorized_exec,
/// the default), whose semi-join refine and join probe loop always run
/// under the lazy Bloom predicate-transfer schedule
/// (kernels::BloomSchedule), and the original tuple-at-a-time reference.
/// Both return byte-identical row sets — the vectorized path reproduces
/// the reference's match semantics and output ordering exactly, and
/// predicate transfer is a pure pre-test that cannot change results — so
/// the scalar path stays selectable at runtime as the differential
/// baseline (tests/test_kernels.cc, fuzz::DifferentialOracle).
///
/// When the base of a batched join is a whole table (no predicate, nothing
/// reduced away) and its join column is indexed, the batched engine probes
/// the shared, read-only storage::Index instead of building a hash table
/// over every row: the index's counting sort keeps rows ascending within a
/// key, so Index::EqualRange returns the same rows in the same order a
/// build over all rows would group, and results stay byte-identical.
/// Filtered and reduced bases still build.
class Oracle {
 public:
  /// Bytes of materialized intermediates and cached build tables one
  /// replica keeps before evicting.
  static constexpr int64_t kMatBudgetBytes = 384ll * 1024 * 1024;

  /// `budget_bytes` replaces kMatBudgetBytes (tests shrink it to exercise
  /// eviction).
  explicit Oracle(const DbContext* ctx,
                  int64_t budget_bytes = kMatBudgetBytes);

  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// Result of a cardinality request. `overflow` marks subsets whose
  /// materialization exceeded cost::kMaxIntermediateRows; the executor
  /// treats such plans as timed out.
  struct CardResult {
    int64_t rows = 0;
    bool overflow = false;
  };

  /// Rows of `alias` passing all its predicates (ascending row ids).
  const std::vector<storage::RowId>& FilteredRows(const query::Query& q,
                                                  query::AliasId alias);

  /// Filtered row count of a base relation.
  int64_t TrueBaseRows(const query::Query& q, query::AliasId alias);

  /// Rows of `alias` matching ONLY its `pred_index`-th predicate (used to
  /// model index/bitmap scan page access).
  const std::vector<storage::RowId>& SinglePredicateRows(const query::Query& q,
                                                         query::AliasId alias,
                                                         size_t pred_index);

  /// True cardinality of the join over a connected alias subset.
  CardResult TrueJoinRows(const query::Query& q, query::AliasMask mask);

  /// Bound predicates of an alias (resolved dictionary codes).
  const std::vector<query::BoundPredicate>& BoundPredicates(
      const query::Query& q, query::AliasId alias);

  /// Frees all materialized intermediates and cached build tables
  /// (cardinalities and filtered rows are kept).
  void ReleaseMaterializations();

  /// Total bytes currently held in materialized intermediates and cached
  /// build tables.
  int64_t materialization_bytes() const { return mat_bytes_; }

  /// Distinct filtered bases in the replica-wide cache, each scanned once.
  int64_t cached_bases() const { return static_cast<int64_t>(bases_.size()); }

 private:
  /// Materialized join result: tuples of row-ids, one per alias in
  /// `aliases` (ascending), row-major in `data`.
  struct Intermediate {
    std::vector<query::AliasId> aliases;
    std::vector<storage::RowId> data;
    int64_t rows = 0;

    int64_t bytes() const {
      return static_cast<int64_t>(data.capacity()) *
             static_cast<int64_t>(sizeof(storage::RowId));
    }
  };

  /// One entry of the replica-wide base cache: the rows of a table passing
  /// a set of bound predicates, and build tables over exactly those rows.
  struct FilteredBase {
    std::vector<storage::RowId> rows;  // ascending
    struct Build {
      catalog::ColumnId column;
      int32_t requests = 0;
      // Read-only once filled; filled on the second request (if the budget
      // has room), dropped by eviction and ReleaseMaterializations.
      std::unique_ptr<kernels::JoinHashTable> table;
    };
    std::vector<Build> builds;  // one per join column asked for
  };

  struct QueryMemo {
    bool bound = false;
    std::vector<std::vector<query::BoundPredicate>> preds;  // per alias
    std::vector<FilteredBase*> filtered;  // per alias; null until first use
    std::unordered_map<query::AliasMask, CardResult> cards;
    std::unordered_map<query::AliasMask, Intermediate> mats;
  };

  QueryMemo& Memo(const query::Query& q);
  void EnsureFiltered(QueryMemo& memo, const query::Query& q,
                      query::AliasId alias);
  /// The base cache entry for `table` under the conjunction `preds`,
  /// scanning the table on first request.
  FilteredBase& Base(catalog::TableId table,
                     const query::BoundPredicate* preds, size_t pred_count);
  /// Appends the ascending rows of `table` matching every predicate.
  void Filter(catalog::TableId table, const query::BoundPredicate* preds,
              size_t pred_count, std::vector<storage::RowId>* rows);

  /// Returns the materialized subset or nullptr on overflow. Prefers
  /// extending a cached submask materialization by one relation (exact and
  /// blowup-free); otherwise evaluates the subset from scratch with
  /// Yannakakis-style semi-join reduction, which bounds intermediates by
  /// (roughly) the subset's own result size even for adversarial shapes.
  const Intermediate* Materialize(QueryMemo& memo, const query::Query& q,
                                  query::AliasMask mask);

  /// Joins `left` with base rows of `alias` over all connecting edges
  /// within `scope`. Returns overflow via `result.rows < 0`. Dispatches to
  /// the batched or the tuple-at-a-time engine per config.
  Intermediate JoinWithBase(QueryMemo& memo, const query::Query& q,
                            const Intermediate& left, query::AliasId alias,
                            const std::vector<storage::RowId>& base_rows,
                            query::AliasMask scope);
  Intermediate JoinWithBaseScalar(
      const query::Query& q, const Intermediate& left, query::AliasId alias,
      const std::vector<storage::RowId>& base_rows, query::AliasMask scope);
  Intermediate JoinWithBaseVectorized(
      QueryMemo& memo, const query::Query& q, const Intermediate& left,
      query::AliasId alias, const std::vector<storage::RowId>& base_rows,
      query::AliasMask scope);

  /// Build side of a batched join with the base rows of `alias` on
  /// `column` (defined in oracle.cc).
  struct BaseProbe;
  /// Probes the shared storage::Index on (alias's table, `column`) when
  /// `base_rows` is the whole table and the column is indexed — no build.
  /// Else, when `base_rows` is the alias's cached filtered list itself
  /// (not a reduced copy), probes that base's cached build table, filling
  /// it on the second request; otherwise rebuilds join_table_ and probes
  /// that.
  BaseProbe PrepareBase(QueryMemo& memo, const query::Query& q,
                        query::AliasId alias, catalog::ColumnId column,
                        const std::vector<storage::RowId>& base_rows);

  /// Exact count of a TREE-shaped (acyclic) subset by message passing over
  /// the join tree in O(sum of base rows) — no materialization, any result
  /// size. Returns false when the subset's edges contain a cycle.
  bool TreeCount(QueryMemo& memo, const query::Query& q,
                 query::AliasMask mask, int64_t* count);

  /// Streams the one-relation extension of `left` counting result rows
  /// without storing them; returns false when the pair-iteration work cap
  /// is exceeded. Used for subsets too large to materialize.
  bool CountExtension(QueryMemo& memo, const query::Query& q,
                      const Intermediate& left, query::AliasId alias,
                      const std::vector<storage::RowId>& base_rows,
                      int64_t* count);
  bool CountExtensionScalar(const query::Query& q, const Intermediate& left,
                            query::AliasId alias,
                            const std::vector<storage::RowId>& base_rows,
                            int64_t* count);
  bool CountExtensionVectorized(QueryMemo& memo, const query::Query& q,
                                const Intermediate& left,
                                query::AliasId alias,
                                const std::vector<storage::RowId>& base_rows,
                                int64_t* count);

  /// Semi-join-reduces the filtered row lists of every alias in `mask`
  /// (rows without a join partner on some edge inside `mask` are dropped;
  /// sound for computing the join over `mask`).
  std::vector<std::vector<storage::RowId>> SemiJoinReduce(
      QueryMemo& memo, const query::Query& q, query::AliasMask mask);

  void TrackBytes(int64_t delta);
  /// Evicts when over budget: every cached build table first, then
  /// materializations, never touching `keep_mask` of `keep` (callers may
  /// hold a pointer into it). Runs only between joins, so no table it
  /// drops is being probed.
  void EnforceBudget(QueryMemo& keep, query::AliasMask keep_mask);
  /// Drops every cached build table (their request counts stay).
  void DropBuildTables();

  const DbContext* ctx_;
  const int64_t budget_bytes_;
  std::unordered_map<uint64_t, QueryMemo> memos_;
  // Replica-wide base cache, keyed by table and canonical bound predicates
  // (BaseKey in oracle.cc). Node-based, so the FilteredBase pointers that
  // memos hold stay valid; entries live as long as the oracle.
  std::unordered_map<std::string, FilteredBase> bases_;
  int64_t mat_bytes_ = 0;  // intermediates + cached build tables

  // Scratch for the batched engine, reused across calls so the steady-state
  // hot path performs no per-tuple heap allocation (the Oracle is already
  // single-threaded per replica, so plain members are safe).
  // SemiJoinReduce keeps one ValueSet per distinct (probe alias, column)
  // build key so an unchanged probe side never rebuilds its set across
  // passes; the pool persists so slot storage is reused across queries.
  std::vector<kernels::ValueSet> semi_set_pool_;
  kernels::JoinHashTable join_table_;
  BloomFilter transfer_bloom_;
};

}  // namespace lqolab::exec

#endif  // LQOLAB_EXEC_ORACLE_H_
