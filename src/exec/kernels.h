#ifndef LQOLAB_EXEC_KERNELS_H_
#define LQOLAB_EXEC_KERNELS_H_

#include <cstdint>
#include <vector>

#include "exec/bloom.h"
#include "query/predicate_binding.h"
#include "storage/column.h"

/// Batch-at-a-time operator kernels for the oracle/executor hot path
/// (docs/execution.md). Rows move through the kernels as selection vectors —
/// dense, ascending std::vector<RowId> — produced and consumed in
/// kBatchRows-sized strides over raw column arrays. Every kernel is written
/// to be byte-compatible with the tuple-at-a-time reference in
/// exec/oracle.cc: same match semantics, same output order, so the two
/// paths are interchangeable (tests/test_kernels.cc enforces this).
///
/// All kernels append into caller-owned buffers and never shrink capacity,
/// so a warmed caller (Oracle's scratch members) runs them with zero heap
/// allocations per tuple in steady state.
namespace lqolab::exec::kernels {

/// Rows processed per inner-loop stride. Batches bound the stack-resident
/// staging buffers and keep the working set inside L1.
inline constexpr int32_t kBatchRows = 1024;

/// Predicate transfer (docs/execution.md): a Bloom filter over the build
/// side, consulted before the exact lookup, rejects most absent keys on one
/// cache line. It only pays when rejections dominate the probe stream —
/// every key that passes the filter pays for it on top of the exact lookup
/// — so every probe stream follows one lazy schedule: exact-only over its
/// first kBloomSampleProbes non-null keys, then, if at least
/// kBloomBuildMissNum / kBloomBuildMissDen of them missed, build the filter
/// once and pre-test every later key on it. The decision is a pure function
/// of the probe sequence, and a Bloom negative is exact, so output bytes
/// are identical either way.
inline constexpr int64_t kBloomSampleProbes = 4096;
inline constexpr int64_t kBloomBuildMissNum = 7;
inline constexpr int64_t kBloomBuildMissDen = 8;

/// The schedule above for one probe stream. Streams shorter than the
/// sample never build a filter.
class BloomSchedule {
 public:
  /// Counts one probe key's exact outcome; NULL keys never match and do
  /// not count. Branch-free, so a probe loop can call it on every key
  /// while sampling().
  void Observe(bool non_null, bool hit) {
    probes_ += non_null ? 1 : 0;
    misses_ += (non_null && !hit) ? 1 : 0;
  }

  bool sampling() const { return probes_ < kBloomSampleProbes; }

  /// True once the sample is complete and enough of it missed: the caller
  /// fills its filter (FillBloom) and pre-tests every later key on it.
  bool Fires() const {
    return probes_ == kBloomSampleProbes &&
           misses_ * kBloomBuildMissDen >=
               kBloomSampleProbes * kBloomBuildMissNum;
  }

 private:
  int64_t probes_ = 0;
  int64_t misses_ = 0;
};

/// Appends the row-ids in [0, num_rows) matching `pred` to `*out`
/// (ascending; `*out` is not cleared). `data` is the column's raw value
/// array (storage::Column::data()).
void SelectPredicate(const storage::Value* data, int64_t num_rows,
                     const query::BoundPredicate& pred,
                     std::vector<storage::RowId>* out);

/// Appends all row-ids [0, num_rows) to `*out` — the no-predicate scan.
void SelectAll(int64_t num_rows, std::vector<storage::RowId>* out);

/// In-place compaction: keeps only the row-ids whose column value matches
/// `pred`. Preserves order.
void RefinePredicate(const storage::Value* data,
                     const query::BoundPredicate& pred,
                     std::vector<storage::RowId>* rows);

/// Open-addressing set of non-null join-key values — the batch counterpart
/// of the reference path's std::unordered_set<Value> in semi-join
/// reduction. Build() reuses slot storage across calls.
class ValueSet {
 public:
  /// Rebuilds the set from `column[rows[i]]` for i in [0, n); null keys are
  /// skipped.
  void Build(const storage::Value* column, const storage::RowId* rows,
             int64_t n);

  /// Never true for a value that was not inserted; null never matches.
  bool Contains(storage::Value v) const {
    size_t i = HashValue(v) & mask_;
    while (true) {
      const storage::Value k = slots_[i];
      if (k == v) return true;
      if (k == storage::kNullValue) return false;
      i = (i + 1) & mask_;
    }
  }

  int64_t distinct() const { return distinct_; }

  /// Hints the cache line of `v`'s home slot into cache. Probe loops call
  /// this a few iterations ahead of Contains() so the (random) slot load
  /// overlaps useful work instead of stalling the loop.
  void PrefetchContains(storage::Value v) const {
    __builtin_prefetch(slots_.data() + (HashValue(v) & mask_));
  }

  /// Rebuilds `*bloom` over this set's values (predicate transfer) and
  /// counts obs::Counter::kOracleBloomBuilds.
  void FillBloom(BloomFilter* bloom) const;

  /// 32-bit finalizer (xxhash-style avalanche) shared by ValueSet and
  /// JoinHashTable so slot placement is deterministic across platforms.
  static uint32_t HashValue(storage::Value v) {
    uint32_t x = static_cast<uint32_t>(v);
    x ^= x >> 16;
    x *= 0x7feb352dU;
    x ^= x >> 15;
    x *= 0x846ca68bU;
    x ^= x >> 16;
    return x;
  }

 private:
  std::vector<storage::Value> slots_;  // kNullValue marks an empty slot
  size_t mask_ = 0;
  int64_t distinct_ = 0;
};

/// In-place compaction of `rows` to those whose column value is non-null
/// and present in `set`, under the BloomSchedule: when the sample fires,
/// `*bloom` is rebuilt from `set` and pre-tests the remaining rows. The
/// filter never decides membership, only short-circuits definite misses,
/// so the output equals a plain exact refine.
void RefineBySet(const storage::Value* column, const ValueSet& set,
                 BloomFilter* bloom, std::vector<storage::RowId>* rows);

/// Batched hash-join build side: groups base row-ids by join-key value.
/// Byte-compatibility contract with the reference path's
/// std::unordered_map<Value, std::vector<RowId>>: Probe(v) returns the
/// matching rows in exactly the order they appeared in the Build() input
/// (a two-pass grouped layout — count, prefix-sum, fill — instead of
/// per-key vectors, so building allocates O(1) times, not per key).
class JoinHashTable {
 public:
  /// Rebuilds from `column[rows[i]]` for i in [0, n); null keys are
  /// skipped. Reuses slot and payload storage across calls.
  void Build(const storage::Value* column, const storage::RowId* rows,
             int64_t n);

  struct Group {
    const storage::RowId* rows = nullptr;
    int32_t count = 0;
  };

  /// The base rows whose key equals `v`, in Build() input order; an empty
  /// group when absent (or when `v` is null).
  Group Probe(storage::Value v) const {
    size_t i = ValueSet::HashValue(v) & mask_;
    while (true) {
      const storage::Value k = slot_keys_[i];
      if (k == v) {
        return {payload_.data() + slot_offset_[i], slot_count_[i]};
      }
      if (k == storage::kNullValue) return {};
      i = (i + 1) & mask_;
    }
  }

  int64_t distinct() const { return distinct_; }
  int64_t payload_rows() const { return static_cast<int64_t>(payload_size_); }

  /// Hints the cache line of `v`'s home slot into cache ahead of Probe().
  void PrefetchProbe(storage::Value v) const {
    __builtin_prefetch(slot_keys_.data() + (ValueSet::HashValue(v) & mask_));
  }

  /// Rebuilds `*bloom` over this table's distinct keys (predicate
  /// transfer) and counts obs::Counter::kOracleBloomBuilds.
  void FillBloom(BloomFilter* bloom) const;

  /// Frees the storage only Build() uses (its cursors and slot memo);
  /// Probe() keeps working. For a table that is kept for reuse, not rebuilt.
  void ReleaseBuildScratch();

  /// Heap bytes the table holds.
  int64_t bytes() const;

  /// Upper bound on bytes() of a fresh table after Build() over `rows` rows
  /// and ReleaseBuildScratch().
  static int64_t RetainedBytes(int64_t rows);

 private:
  std::vector<storage::Value> slot_keys_;  // kNullValue marks an empty slot
  std::vector<int32_t> slot_count_;
  std::vector<int32_t> slot_offset_;
  std::vector<int32_t> slot_cursor_;
  std::vector<int32_t> row_slot_;  // pass-1 slot memo, -1 for null keys
  std::vector<storage::RowId> payload_;
  size_t payload_size_ = 0;
  size_t mask_ = 0;
  int64_t distinct_ = 0;
};

}  // namespace lqolab::exec::kernels

#endif  // LQOLAB_EXEC_KERNELS_H_
