#include "storage/index.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace lqolab::storage {

Index::Index(const Table& table, catalog::ColumnId column) : column_(column) {
  const Column& data = table.column(column);
  const Value* keys = data.data();
  const int64_t n = data.size();
  int64_t entries = 0;
  Value min = std::numeric_limits<Value>::max();
  Value max = std::numeric_limits<Value>::min();
  for (int64_t row = 0; row < n; ++row) {
    const Value value = keys[row];
    if (value == kNullValue) continue;
    ++entries;
    min = std::min(min, value);
    max = std::max(max, value);
  }
  rows_.resize(static_cast<size_t>(entries));
  const int64_t span =
      entries == 0 ? 0
                   : static_cast<int64_t>(max) - static_cast<int64_t>(min) + 1;

  if (span <= entries + kSpanSlack) {
    // Counting sort: count each key into the slot after its own, prefix-sum
    // so offsets_[s] is slot s's start, then scatter rows in ascending
    // order, advancing each start to its end — which leaves slot s's end,
    // the start of s + 1, in offsets_[s]; shifting by one restores starts.
    min_ = entries == 0 ? 0 : min;
    offsets_.assign(static_cast<size_t>(span) + 1, 0);
    for (int64_t row = 0; row < n; ++row) {
      const Value value = keys[row];
      if (value == kNullValue) continue;
      ++offsets_[Slot(value) + 1];
    }
    for (size_t s = 1; s < offsets_.size(); ++s) offsets_[s] += offsets_[s - 1];
    for (int64_t row = 0; row < n; ++row) {
      const Value value = keys[row];
      if (value == kNullValue) continue;
      rows_[offsets_[Slot(value)]++] = static_cast<RowId>(row);
    }
    std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
    offsets_[0] = 0;
    return;
  }

  std::vector<std::pair<Value, RowId>> sorted;
  sorted.reserve(static_cast<size_t>(entries));
  for (int64_t row = 0; row < n; ++row) {
    if (keys[row] != kNullValue) {
      sorted.emplace_back(keys[row], static_cast<RowId>(row));
    }
  }
  std::sort(sorted.begin(), sorted.end());
  values_.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    values_.push_back(sorted[i].first);
    rows_[i] = sorted[i].second;
  }
}

std::span<const RowId> Index::SparseEqualRange(Value value) const {
  const auto [begin, end] =
      std::equal_range(values_.begin(), values_.end(), value);
  return {rows_.data() + (begin - values_.begin()),
          static_cast<size_t>(end - begin)};
}

int32_t Index::height() const {
  // Fanout ~256: height = ceil(log_256(leaf pages)) + 1.
  int64_t pages = leaf_page_count();
  int32_t height = 1;
  while (pages > 1) {
    pages = (pages + 255) / 256;
    ++height;
  }
  return height;
}

}  // namespace lqolab::storage
