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
/// to be byte-compatible with the tuple-at-a-time reference,
/// fuzz::ScalarOracle: same match semantics, same output order, so the two
/// are interchangeable (tests/test_kernels.cc enforces this).
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

/// The non-null keys of a build input `column[rows[i]]`, i in [0, n): how
/// many there are and the range they cover. ValueSet and JoinHashTable
/// choose their layout from it.
struct KeyRange {
  int64_t rows = 0;  // input rows, NULL keys included
  int64_t keys = 0;  // non-null keys
  storage::Value min = 0;  // smallest and largest non-null key;
  storage::Value max = -1;  // 0 and -1 when there is none

  /// max - min + 1, in 64 bits: a 32-bit key range overflows int32_t.
  /// 0 when there is no non-null key.
  int64_t span() const {
    return static_cast<int64_t>(max) - static_cast<int64_t>(min) + 1;
  }

  static KeyRange Of(const storage::Value* column, const storage::RowId* rows,
                     int64_t n);
};

/// Set of non-null join-key values — the batch counterpart of the
/// reference's std::unordered_set<Value> in semi-join reduction.
/// Build() picks one of two layouts from its input's KeyRange:
/// - direct: a bitmap over [min, max], when it takes no more bytes than
///   the open-addressing slot array would for the same input (1 bit per
///   key value against 4 bytes per slot: span <= 32 * slots);
/// - open addressing: a slot array of 2n-4n values, for sparse keys.
/// Build() reuses both layouts' storage across calls.
class ValueSet {
 public:
  /// Rebuilds the set from `column[rows[i]]` for i in [0, n); null keys are
  /// skipped.
  void Build(const storage::Value* column, const storage::RowId* rows,
             int64_t n);

  /// Never true for a value that was not inserted. `v` must not be null:
  /// callers skip NULL keys, and open addressing marks its empty slots
  /// with kNullValue.
  bool Contains(storage::Value v) const {
    if (direct_) {
      const uint64_t s = Slot(v);
      return s < span_ && ((bits_[s >> 6] >> (s & 63)) & 1) != 0;
    }
    size_t i = HashValue(v) & mask_;
    while (true) {
      const storage::Value k = slots_[i];
      if (k == v) return true;
      if (k == storage::kNullValue) return false;
      i = (i + 1) & mask_;
    }
  }

  int64_t distinct() const { return distinct_; }

  /// True when the last Build() chose the bitmap layout.
  bool direct() const { return direct_; }

  /// Hints the cache line Contains(v) reads into cache. Probe loops call
  /// this a few iterations ahead of Contains() so the (random) load
  /// overlaps useful work instead of stalling the loop.
  void PrefetchContains(storage::Value v) const {
    if (direct_) {
      const uint64_t s = Slot(v);
      if (s < span_) __builtin_prefetch(bits_.data() + (s >> 6));
      return;
    }
    __builtin_prefetch(slots_.data() + (HashValue(v) & mask_));
  }

  /// Rebuilds `*bloom` over this set's values (predicate transfer) and
  /// counts obs::Counter::kOracleBloomBuilds. Either layout adds the same
  /// keys, so the filter's bits do not depend on the layout.
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
  /// Bit of `v` in the direct layout; a value below min_ wraps past span_.
  uint64_t Slot(storage::Value v) const {
    return static_cast<uint64_t>(static_cast<int64_t>(v) -
                                 static_cast<int64_t>(min_));
  }

  bool direct_ = false;
  // Direct layout: bit v - min_ of bits_ is set when v is in the set.
  std::vector<uint64_t> bits_;
  storage::Value min_ = 0;
  uint64_t span_ = 0;
  // Open-addressing layout; kNullValue marks an empty slot.
  std::vector<storage::Value> slots_;
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

/// Batched join build side: groups base row-ids by join-key value.
/// Byte-compatibility contract with the reference's
/// std::unordered_map<Value, std::vector<RowId>>: Probe(v) returns the
/// matching rows in exactly the order they appeared in the Build() input.
/// Both layouts group the rows in one flat payload array by counting,
/// prefix-summing and scattering in input order, so building allocates
/// O(1) times, not per key. Build() picks the layout from its input's
/// KeyRange:
/// - direct: an offset table over [min, max], as storage::Index's dense
///   layout — key v's rows are payload[offsets[v - min], offsets[v - min
///   + 1]) — when it takes no more bytes than the open-addressing slots
///   would for the same input (4 bytes per key value against 12 retained
///   bytes per slot: span + 1 <= 3 * slots);
/// - open addressing: key, count and offset slots (2n-4n of each) plus a
///   pass-1 slot memo per input row, for sparse keys.
class JoinHashTable {
 public:
  /// Rebuilds from `column[rows[i]]` for i in [0, n); null keys are
  /// skipped. Reuses both layouts' storage across calls.
  void Build(const storage::Value* column, const storage::RowId* rows,
             int64_t n) {
    Build(column, rows, KeyRange::Of(column, rows, n));
  }

  /// The same, for a caller that already holds the input's KeyRange.
  void Build(const storage::Value* column, const storage::RowId* rows,
             const KeyRange& range);

  struct Group {
    const storage::RowId* rows = nullptr;
    int32_t count = 0;
  };

  /// The base rows whose key equals `v`, in Build() input order; an empty
  /// group when absent. `v` must not be null, as for ValueSet::Contains.
  Group Probe(storage::Value v) const {
    if (direct_) {
      const uint64_t s = Slot(v);
      if (s >= span_) return {};
      const int32_t begin = offsets_[s];
      return {payload_.data() + begin, offsets_[s + 1] - begin};
    }
    size_t i = ValueSet::HashValue(v) & mask_;
    while (true) {
      const storage::Value k = slot_keys_[i];
      if (k == v) {
        return {payload_.data() + offsets_[i], slot_count_[i]};
      }
      if (k == storage::kNullValue) return {};
      i = (i + 1) & mask_;
    }
  }

  int64_t distinct() const { return distinct_; }
  int64_t payload_rows() const { return static_cast<int64_t>(payload_size_); }

  /// True when the last Build() chose the offset-table layout.
  bool direct() const { return direct_; }

  /// Hints the cache line Probe(v) reads first into cache.
  void PrefetchProbe(storage::Value v) const {
    if (direct_) {
      const uint64_t s = Slot(v);
      if (s < span_) __builtin_prefetch(offsets_.data() + s);
      return;
    }
    __builtin_prefetch(slot_keys_.data() + (ValueSet::HashValue(v) & mask_));
  }

  /// Rebuilds `*bloom` over this table's distinct keys (predicate
  /// transfer) and counts obs::Counter::kOracleBloomBuilds. Either layout
  /// adds the same keys, so the filter's bits do not depend on the layout.
  void FillBloom(BloomFilter* bloom) const;

  /// Frees the storage only the open-addressing Build() uses (its cursors
  /// and slot memo); Probe() keeps working. For a table that is kept for
  /// reuse, not rebuilt.
  void ReleaseBuildScratch();

  /// Heap bytes the table holds.
  int64_t bytes() const;

  /// bytes() of a fresh table after Build() over an input with this
  /// KeyRange and ReleaseBuildScratch(): the exact size of the layout the
  /// build will choose.
  static int64_t RetainedBytes(const KeyRange& range);

 private:
  /// Offset slot of `v` in the direct layout; a value below min_ wraps
  /// past span_.
  uint64_t Slot(storage::Value v) const {
    return static_cast<uint64_t>(static_cast<int64_t>(v) -
                                 static_cast<int64_t>(min_));
  }

  bool direct_ = false;
  storage::Value min_ = 0;  // direct layout: key of offset slot 0
  uint64_t span_ = 0;       // direct layout: offset slots, one per key value
  // Payload offsets. Direct layout: span_ + 1 group bounds. Open
  // addressing: occupied slot i's group starts at offsets_[i].
  std::vector<int32_t> offsets_;
  std::vector<storage::Value> slot_keys_;  // kNullValue marks an empty slot
  std::vector<int32_t> slot_count_;
  std::vector<int32_t> slot_cursor_;
  std::vector<int32_t> row_slot_;  // pass-1 slot memo, -1 for null keys
  std::vector<storage::RowId> payload_;
  size_t payload_size_ = 0;
  size_t mask_ = 0;
  int64_t distinct_ = 0;
};

}  // namespace lqolab::exec::kernels

#endif  // LQOLAB_EXEC_KERNELS_H_
