#ifndef LQOLAB_STORAGE_INDEX_H_
#define LQOLAB_STORAGE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "catalog/schema.h"
#include "storage/table.h"

namespace lqolab::storage {

/// Secondary index over one column: each non-NULL value's rows, ascending,
/// answered by equality lookup — the moral equivalent of a B-tree leaf
/// level. Index pages participate in the buffer-cache model through
/// leaf_page_count().
///
/// The layout is chosen from the data. When the value span (max - min + 1)
/// is at most entry_count() + kSpanSlack, the index is an offset table:
/// rows_[offsets_[v - min], offsets_[v - min + 1]) are the rows with key
/// v, so a lookup is two loads. The offset array then outgrows the values
/// array it replaces by at most kSpanSlack + 1 slots (~256 KiB). A sparser
/// column keeps a parallel values_ array sorted with rows_ and answers by
/// binary search — the only layout that fits a span of up to 2^32.
class Index {
 public:
  /// Offset slots a dense index may hold beyond one per entry.
  static constexpr int64_t kSpanSlack = 65536;

  /// Builds the index from the current table contents. NULLs are skipped.
  Index(const Table& table, catalog::ColumnId column);

  catalog::ColumnId column() const { return column_; }

  /// Rows with exactly this value, ascending; empty for kNullValue.
  std::span<const RowId> EqualRange(Value value) const {
    if (offsets_.empty()) return SparseEqualRange(value);
    const uint64_t slot = Slot(value);
    if (slot >= offsets_.size() - 1) return {};
    const uint32_t begin = offsets_[slot];
    return {rows_.data() + begin, offsets_[slot + 1] - begin};
  }

  /// Prefetches the memory EqualRange(value) reads first: the offset slot
  /// of a dense index (a no-op for the sparse layout and out-of-span
  /// values).
  void PrefetchEqualRange(Value value) const {
    const uint64_t slot = Slot(value);
    if (slot < offsets_.size()) __builtin_prefetch(offsets_.data() + slot);
  }

  /// Entries in the index.
  int64_t entry_count() const { return static_cast<int64_t>(rows_.size()); }

  /// Simulated leaf pages (~256 entries per 8 KiB leaf).
  int64_t leaf_page_count() const {
    return entry_count() == 0 ? 1 : (entry_count() + 255) / 256;
  }

  /// Simulated B-tree height (root-to-leaf descent length).
  int32_t height() const;

  /// True for the offset-table layout, false for sorted values_.
  bool dense() const { return !offsets_.empty(); }

 private:
  /// Offset slot of `value` in the dense layout. In 64 bits: the span of a
  /// 32-bit column overflows int32_t, and a value below min_ wraps to a
  /// slot past the end.
  uint64_t Slot(Value value) const {
    return static_cast<uint64_t>(static_cast<int64_t>(value) -
                                 static_cast<int64_t>(min_));
  }

  std::span<const RowId> SparseEqualRange(Value value) const;

  // Row ids grouped by value; ascending within a value.
  std::vector<RowId> rows_;
  // Dense layout: span + 1 offsets into rows_, slot v - min_.
  std::vector<uint32_t> offsets_;
  Value min_ = 0;
  // Sparse layout: each rows_ entry's value (ascending).
  std::vector<Value> values_;
  catalog::ColumnId column_;
};

}  // namespace lqolab::storage

#endif  // LQOLAB_STORAGE_INDEX_H_
