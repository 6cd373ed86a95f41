#ifndef LQOLAB_EXEC_ORACLE_H_
#define LQOLAB_EXEC_ORACLE_H_

#include <cstdint>
#include <memory>
#include <span>
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
/// the data (hash joins over weighted row-id tuples). Cardinalities and
/// materialized intermediates are memoized per query fingerprint, so
/// repeated plan executions during LQO training are cheap.
///
/// An intermediate is a weighted relation (docs/execution.md, "Weighted
/// frontier intermediates"): it keeps the row ids of its subset's frontier
/// aliases only — those with an edge to an alias outside the subset, the
/// only columns a later extension reads — one row per distinct frontier
/// tuple with its multiplicity as a weight, and its row count is the weight
/// sum. A subset with no frontier (every plan's root) is one running count.
/// The caps are decided on what a join stores and does, not on its logical
/// rows (JoinWithBase): a subset overflows, and its plans time out, only
/// when its stored rows or cells pass cost::kMaxIntermediateRows or
/// cost::kMaxIntermediateCells, its count passes INT64_MAX, or one join
/// visits more than cost::kMaxVisitedPairs base rows. There is no second
/// counting path: every answer comes from materializing the subset.
///
/// Filtered bases are shared per replica instead (docs/execution.md,
/// "Shared filtered bases"): one cache keyed by (table, canonical bound
/// predicates) holds each distinct filtered row list once, whatever alias,
/// query id or predicate order asks for it, and single-predicate lists are
/// the same cache's one-predicate entries. Next to each list, a read-only
/// build table per join column is kept once a second join asks for it
/// (second-touch admission, by the exact bytes of the layout the build
/// chooses: JoinHashTable::RetainedBytes); kept tables count against the
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
/// The hot path runs the batch-at-a-time kernels of exec/kernels.h, whose
/// semi-join refine and join probe loop run under the lazy Bloom
/// predicate-transfer schedule (kernels::BloomSchedule). Three protected
/// virtual methods — Filter, SemiJoinReduce and JoinWithBase — are the only
/// test seam: fuzz::ScalarOracle overrides them with the original
/// tuple-at-a-time reference, which keeps every alias of a subset at weight
/// 1, never merges and keeps its caps on logical rows, and keeps this
/// class's memo, base cache and eviction. Filtered and single-predicate row
/// lists are byte-identical between the two; joins agree by count wherever
/// the reference does not overflow (tests/test_kernels.cc,
/// tests/test_answers.cc, fuzz::DifferentialOracle).
///
/// When the base of a join is a whole table (no predicate, nothing reduced
/// away) and its join column is indexed, the oracle probes the shared,
/// read-only storage::Index instead of building a hash table over every
/// row: the index's counting sort keeps rows ascending within a key, so
/// Index::EqualRange returns the same rows in the same order a build over
/// all rows would group. Filtered and reduced bases still build, into an
/// offset table over the key range when that is no larger than open
/// addressing (nearly every build: join keys are dense ids), else into
/// open-addressing slots.
class Oracle {
 public:
  /// Bytes of materialized intermediates and cached build tables one
  /// replica keeps before evicting.
  static constexpr int64_t kMatBudgetBytes = 384ll * 1024 * 1024;

  /// `budget_bytes` replaces kMatBudgetBytes (tests shrink it to exercise
  /// eviction).
  explicit Oracle(const DbContext* ctx,
                  int64_t budget_bytes = kMatBudgetBytes);
  virtual ~Oracle() = default;

  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// Result of a cardinality request. `overflow` marks subsets whose
  /// materialization passed a cap (stored rows or cells, a count past
  /// INT64_MAX, or visited pairs; see JoinWithBase); the executor treats
  /// such plans as timed out.
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

  /// Whether the join over `mask` is held as a materialized intermediate:
  /// false when it overflowed, was larger than the whole budget, was
  /// evicted or released, or was never asked for.
  bool HoldsIntermediate(const query::Query& q, query::AliasMask mask);

  /// Frees all materialized intermediates (cardinalities, filtered rows
  /// and cached build tables are kept). A finished query's intermediates
  /// are read again only to extend a subset whose cardinality is not yet
  /// cached.
  void ReleaseIntermediates();

  /// Frees all materialized intermediates and cached build tables
  /// (cardinalities and filtered rows are kept).
  void ReleaseMaterializations();

  /// Total bytes currently held in materialized intermediates and cached
  /// build tables.
  int64_t materialization_bytes() const { return mat_bytes_; }

  /// Distinct filtered bases in the replica-wide cache, each scanned once.
  int64_t cached_bases() const { return static_cast<int64_t>(bases_.size()); }

 protected:
  /// Materialized join over the subset `mask`, as a weighted relation: one
  /// row per distinct tuple of row ids over `aliases` (ascending), row-major
  /// in `data`, with its multiplicity in `weights` (empty: every row weighs
  /// 1). The product keeps only the subset's frontier aliases, those with
  /// an edge to an alias outside `mask`; the reference keeps them all.
  /// `rows` is the weight sum: the subset's logical row count.
  struct Intermediate {
    query::AliasMask mask = 0;
    std::vector<query::AliasId> aliases;
    std::vector<storage::RowId> data;
    std::vector<int64_t> weights;
    int64_t rows = 0;

    /// Rows physically stored (distinct kept tuples; none without aliases).
    int64_t stored_rows() const {
      return aliases.empty() ? 0
                             : static_cast<int64_t>(data.size() /
                                                    aliases.size());
    }
    int64_t Weight(int64_t row) const {
      return weights.empty() ? 1 : weights[static_cast<size_t>(row)];
    }
    int64_t bytes() const {
      return static_cast<int64_t>(data.capacity()) *
                 static_cast<int64_t>(sizeof(storage::RowId)) +
             static_cast<int64_t>(weights.capacity()) *
                 static_cast<int64_t>(sizeof(int64_t));
    }
    /// Column of `alias` within a tuple.
    int32_t PositionOf(query::AliasId alias) const;
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

  /// One equality joining a left tuple to a base row: the left alias's
  /// column within the tuple, the base's join column, and the raw value
  /// arrays of both.
  struct EdgeProbe {
    int32_t left_pos;
    catalog::ColumnId right_column;
    const storage::Value* left_col;
    const storage::Value* right_col;
  };

  /// Whether every equality in `probes` holds between `tuple` and
  /// `base_row` (NULL matches nothing).
  static bool AllMatch(std::span<const EdgeProbe> probes,
                       const storage::RowId* tuple, storage::RowId base_row) {
    for (const EdgeProbe& probe : probes) {
      const storage::Value lv = probe.left_col[tuple[probe.left_pos]];
      if (lv == storage::kNullValue || lv != probe.right_col[base_row]) {
        return false;
      }
    }
    return true;
  }

  const DbContext& ctx() const { return *ctx_; }

  QueryMemo& Memo(const query::Query& q);

  /// The join edges with both ends inside `mask`.
  static std::vector<query::JoinEdge> EdgesWithin(const query::Query& q,
                                                  query::AliasMask mask);

  /// The edges joining `left` to the base rows of `alias` (at least one):
  /// the first is hashed, the rest are residual equalities checked per
  /// matching pair.
  std::vector<EdgeProbe> ProbeEdges(const query::Query& q,
                                    const Intermediate& left,
                                    query::AliasId alias) const;

  void EnsureFiltered(QueryMemo& memo, const query::Query& q,
                      query::AliasId alias);

  /// Appends the ascending rows of `table` matching every predicate.
  virtual void Filter(catalog::TableId table,
                      const query::BoundPredicate* preds, size_t pred_count,
                      std::vector<storage::RowId>* rows);

  /// Semi-join-reduces the filtered row lists of every alias in `mask`
  /// (rows without a join partner on some edge inside `mask` are dropped;
  /// sound for computing the join over `mask`).
  virtual std::vector<std::vector<storage::RowId>> SemiJoinReduce(
      QueryMemo& memo, const query::Query& q, query::AliasMask mask);

  /// Joins `left` with base rows of `alias` over every edge between them,
  /// into the intermediate over `left.mask | alias`. Returns overflow via
  /// `result.rows < 0` once the result's stored rows pass
  /// cost::kMaxIntermediateRows, its stored cells (data.size() +
  /// 2 × weights.size()) reach cost::kMaxIntermediateCells, its weight sum
  /// would pass INT64_MAX, or the base rows it visits pass
  /// cost::kMaxVisitedPairs.
  virtual Intermediate JoinWithBase(
      QueryMemo& memo, const query::Query& q, const Intermediate& left,
      query::AliasId alias, const std::vector<storage::RowId>& base_rows);

 private:
  /// The base cache entry for `table` under the conjunction `preds`,
  /// scanning the table on first request.
  FilteredBase& Base(catalog::TableId table,
                     const query::BoundPredicate* preds, size_t pred_count);

  /// Materializes the subset and returns its count (or overflow), keeping
  /// the intermediate unless it is larger than the whole budget. Prefers
  /// extending a cached submask materialization by one relation (exact and
  /// blowup-free); otherwise evaluates the subset from scratch with
  /// Yannakakis-style semi-join reduction, which bounds intermediates by
  /// (roughly) the subset's own result size even for adversarial shapes.
  CardResult Materialize(QueryMemo& memo, const query::Query& q,
                         query::AliasMask mask);

  /// Build side of a join with the base rows of `alias` on `column`
  /// (defined in oracle.cc).
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

  void TrackBytes(int64_t delta);
  /// Evicts when over budget: every cached build table first, then
  /// materializations, never touching `keep_mask` of `keep` (just kept, and
  /// no larger than the budget, so the budget holds afterwards). Runs only
  /// between joins, so no table it drops is being probed.
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

  // Scratch for the batched kernels, reused across calls so the steady-state
  // hot path performs no per-tuple heap allocation (the Oracle is already
  // single-threaded per replica, so plain members are safe).
  // SemiJoinReduce keeps one ValueSet per distinct (probe alias, column)
  // build key so an unchanged probe side never rebuilds its set across
  // passes; the pool persists so bitmap and slot storage is reused across
  // queries, as join_table_'s is across builds.
  std::vector<kernels::ValueSet> semi_set_pool_;
  kernels::JoinHashTable join_table_;
  BloomFilter transfer_bloom_;
  // JoinWithBase's merge scratch: a row id's output row, or -1, indexed by
  // row id when one column is kept (every entry is -1 between joins), and
  // open-addressing slots of output rows when several are.
  std::vector<int32_t> merge_by_row_;
  std::vector<int32_t> merge_slots_;
};

}  // namespace lqolab::exec

#endif  // LQOLAB_EXEC_ORACLE_H_
