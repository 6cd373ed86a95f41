#include "stats/column_stats.h"

#include <algorithm>
#include <limits>
#include <span>

#include "storage/index.h"

namespace lqolab::stats {

using storage::kNullValue;
using storage::Value;

namespace {

/// Fractional bucket position of `v` in [0, buckets]: the index of the
/// bucket containing v plus linear interpolation inside it. All comparisons
/// happen in doubles — casting v back to Value truncates toward zero, which
/// used to shift negative query bounds into the wrong bucket. Duplicate
/// bounds (duplicate-heavy columns produce runs of equal equi-depth bounds)
/// are handled by always interpolating in the last bucket whose lower bound
/// is <= v, whose width is then strictly positive.
double BucketPosition(const std::vector<Value>& bounds, double v) {
  const double buckets = static_cast<double>(bounds.size() - 1);
  if (v <= static_cast<double>(bounds.front())) return 0.0;
  if (v >= static_cast<double>(bounds.back())) return buckets;
  const auto it = std::upper_bound(
      bounds.begin(), bounds.end(), v,
      [](double value, Value bound) { return value < static_cast<double>(bound); });
  // Everything before `it` is <= v, so b is the last such index; since
  // bounds.front() <= v < bounds.back(), b is in [0, size-2] and
  // bounds[b+1] > v >= bounds[b] gives a strictly positive width.
  const size_t b = static_cast<size_t>(it - bounds.begin()) - 1;
  const double width =
      static_cast<double>(bounds[b + 1]) - static_cast<double>(bounds[b]);
  const double frac =
      width <= 0.0 ? 0.5 : (v - static_cast<double>(bounds[b])) / width;
  const double position =
      static_cast<double>(b) + std::min(1.0, std::max(0.0, frac));
  return std::min(buckets, std::max(0.0, position));
}

/// Fraction of histogram mass inside [lo, hi], linearly interpolated within
/// buckets (PostgreSQL's ineq_histogram_selectivity approach).
double HistogramRangeFraction(const std::vector<Value>& bounds, Value lo,
                              Value hi) {
  if (bounds.size() < 2) return 0.0;
  if (bounds.front() == bounds.back()) {
    // All bounds equal: the histogram is a point mass; inclusive ranges
    // either cover it entirely or not at all.
    return lo <= bounds.front() && bounds.front() <= hi ? 1.0 : 0.0;
  }
  const double buckets = static_cast<double>(bounds.size() - 1);
  const double span = BucketPosition(bounds, static_cast<double>(hi) + 0.5) -
                      BucketPosition(bounds, static_cast<double>(lo) - 0.5);
  return std::min(1.0, std::max(0.0, span / buckets));
}

}  // namespace

double ColumnStats::EqSelectivity(Value value) const {
  if (row_count == 0) return 0.0;
  if (value == kNullValue) return 0.0;  // = NULL never matches
  for (size_t i = 0; i < mcv_values.size(); ++i) {
    if (mcv_values[i] == value) return mcv_freqs[i];
  }
  if (value < min_value || value > max_value) return 0.0;
  // Non-MCV value: spread the histogram mass over the remaining distincts.
  const double remaining_distinct =
      static_cast<double>(n_distinct) - static_cast<double>(mcv_values.size());
  if (remaining_distinct <= 0.0) return 1.0 / static_cast<double>(row_count);
  return histogram_fraction / remaining_distinct;
}

double ColumnStats::InSelectivity(const std::vector<Value>& values) const {
  double total = 0.0;
  for (Value v : values) total += EqSelectivity(v);
  return std::min(1.0, total);
}

double ColumnStats::RangeSelectivity(Value lo, Value hi) const {
  if (row_count == 0 || lo > hi) return 0.0;
  double selectivity = 0.0;
  for (size_t i = 0; i < mcv_values.size(); ++i) {
    if (mcv_values[i] >= lo && mcv_values[i] <= hi) selectivity += mcv_freqs[i];
  }
  selectivity +=
      histogram_fraction * HistogramRangeFraction(histogram_bounds, lo, hi);
  return std::min(1.0, selectivity);
}

double ColumnStats::NullSelectivity() const { return null_fraction(); }

double ColumnStats::NotNullSelectivity() const { return 1.0 - null_fraction(); }

namespace {

/// One distinct value and its number of rows.
struct ValueCount {
  Value value;
  int64_t count;
};

/// The MCV order: higher count first, ties broken by the smaller value.
bool McvBefore(const ValueCount& a, const ValueCount& b) {
  return a.count != b.count ? a.count > b.count : a.value < b.value;
}

/// The distinct non-NULL values of one column with their counts, visited
/// in ascending value order. A dense column (span at most non-NULL rows +
/// storage::Index::kSpanSlack, the index's layout rule) is a count per
/// slot of [min, max]; a sparse one is a sorted copy of its values.
class DistinctValues {
 public:
  /// Counts `values` (non-NULL ones within [min, max], `non_null` of them)
  /// into `counts` or `sorted`, whichever the span calls for; both
  /// buffers are reused across the columns of a table.
  DistinctValues(const std::vector<Value>& values, int64_t non_null,
                 Value min, Value max, std::vector<uint32_t>* counts,
                 std::vector<Value>* sorted)
      : min_(min) {
    const int64_t span =
        static_cast<int64_t>(max) - static_cast<int64_t>(min) + 1;
    if (span <= non_null + storage::Index::kSpanSlack) {
      counts->assign(static_cast<size_t>(span), 0);
      for (Value v : values) {
        if (v != kNullValue) ++(*counts)[Slot(v)];
      }
      counts_ = *counts;
      return;
    }
    sorted->clear();
    sorted->reserve(static_cast<size_t>(non_null));
    for (Value v : values) {
      if (v != kNullValue) sorted->push_back(v);
    }
    std::sort(sorted->begin(), sorted->end());
    sorted_ = *sorted;
  }

  /// Calls visit(ValueCount) once per distinct value, ascending.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    for (size_t s = 0; s < counts_.size(); ++s) {
      if (counts_[s] != 0) {
        visit(ValueCount{static_cast<Value>(min_ + static_cast<int64_t>(s)),
                         counts_[s]});
      }
    }
    for (size_t i = 0; i < sorted_.size();) {
      size_t j = i + 1;
      while (j < sorted_.size() && sorted_[j] == sorted_[i]) ++j;
      visit(ValueCount{sorted_[i], static_cast<int64_t>(j - i)});
      i = j;
    }
  }

 private:
  size_t Slot(Value v) const {
    return static_cast<size_t>(static_cast<int64_t>(v) - min_);
  }

  int64_t min_;
  std::span<const uint32_t> counts_;
  std::span<const Value> sorted_;
};

/// Fills n_distinct, the MCVs and the histogram of `cs` from `distinct`;
/// `non_null` is the number of non-NULL rows (at least one).
void Summarize(const DistinctValues& distinct, int64_t non_null,
               ColumnStats* cs) {
  ValueCount best{kNullValue, 0};
  distinct.ForEach([&](const ValueCount& vc) {
    ++cs->n_distinct;
    if (vc.count > best.count) best = vc;  // ascending: first max is smallest
  });

  // MCVs: values appearing more than ~1.25x the average frequency, capped
  // at kMcvTarget (mirrors analyze.c's "common enough" rule); the most
  // common value is always kept.
  const double avg_freq = static_cast<double>(non_null) /
                          static_cast<double>(cs->n_distinct);
  std::vector<ValueCount> mcvs;
  distinct.ForEach([&](const ValueCount& vc) {
    if (static_cast<double>(vc.count) > 1.25 * avg_freq) mcvs.push_back(vc);
  });
  if (mcvs.empty()) mcvs.push_back(best);
  const size_t kept = std::min<size_t>(mcvs.size(), kMcvTarget);
  std::partial_sort(mcvs.begin(), mcvs.begin() + static_cast<ptrdiff_t>(kept),
                    mcvs.end(), McvBefore);
  mcvs.resize(kept);
  int64_t mcv_rows = 0;
  for (const ValueCount& vc : mcvs) {
    cs->mcv_values.push_back(vc.value);
    cs->mcv_freqs.push_back(static_cast<double>(vc.count) /
                            static_cast<double>(cs->row_count));
    mcv_rows += vc.count;
  }

  // Equi-depth histogram over the non-MCV values in ascending order: bound
  // b is the value at position b * (H - 1) / buckets of those H values.
  const int64_t hist_rows = non_null - mcv_rows;
  cs->histogram_fraction = static_cast<double>(hist_rows) /
                           static_cast<double>(cs->row_count);
  if (hist_rows < 2) return;
  std::vector<Value> mcv_sorted = cs->mcv_values;
  std::sort(mcv_sorted.begin(), mcv_sorted.end());
  const uint64_t last = static_cast<uint64_t>(hist_rows) - 1;
  const uint64_t buckets = std::min<uint64_t>(kHistogramBuckets, last);
  cs->histogram_bounds.reserve(buckets + 1);
  size_t next_mcv = 0;
  uint64_t position = 0;  // non-MCV values before the current one
  uint64_t b = 0;
  distinct.ForEach([&](const ValueCount& vc) {
    if (next_mcv < mcv_sorted.size() && mcv_sorted[next_mcv] == vc.value) {
      ++next_mcv;
      return;
    }
    position += static_cast<uint64_t>(vc.count);
    while (b <= buckets && b * last / buckets < position) {
      cs->histogram_bounds.push_back(vc.value);
      ++b;
    }
  });
}

}  // namespace

TableStats Analyze(const storage::Table& table) {
  TableStats stats;
  stats.columns.reserve(static_cast<size_t>(table.column_count()));
  std::vector<uint32_t> counts;  // a dense column's count per value
  std::vector<Value> sorted;     // a sparse column's values, ascending
  for (int32_t c = 0; c < table.column_count(); ++c) {
    const std::vector<Value>& values = table.column(c).values();
    ColumnStats& cs = stats.columns.emplace_back();
    cs.row_count = static_cast<int64_t>(values.size());
    Value min = std::numeric_limits<Value>::max();
    Value max = std::numeric_limits<Value>::min();
    for (Value v : values) {
      if (v == kNullValue) {
        ++cs.null_count;
        continue;
      }
      min = std::min(min, v);
      max = std::max(max, v);
    }
    const int64_t non_null = cs.row_count - cs.null_count;
    if (non_null == 0) continue;
    cs.min_value = min;
    cs.max_value = max;
    Summarize(DistinctValues(values, non_null, min, max, &counts, &sorted),
              non_null, &cs);
  }
  return stats;
}

}  // namespace lqolab::stats
