#ifndef LQOLAB_STATS_COLUMN_STATS_H_
#define LQOLAB_STATS_COLUMN_STATS_H_

#include <cstdint>
#include <vector>

#include "storage/column.h"
#include "storage/table.h"

namespace lqolab::stats {

/// Per-column statistics in the style of pg_statistic: null fraction,
/// distinct count, most-common values with frequencies, and an equi-depth
/// histogram over the remaining values. Built by Analyze().
struct ColumnStats {
  int64_t row_count = 0;
  int64_t null_count = 0;
  int64_t n_distinct = 0;
  storage::Value min_value = storage::kNullValue;
  storage::Value max_value = storage::kNullValue;

  /// Most common values, ordered by descending count with ties broken by
  /// ascending value.
  std::vector<storage::Value> mcv_values;
  /// Frequency (fraction of all rows) per MCV.
  std::vector<double> mcv_freqs;

  /// Equi-depth histogram bounds over non-null, non-MCV values
  /// (bounds.size() = buckets + 1; empty when too few values).
  std::vector<storage::Value> histogram_bounds;
  /// Fraction of all rows covered by the histogram (non-null, non-MCV).
  double histogram_fraction = 0.0;

  /// Estimated selectivity of `column = value`.
  double EqSelectivity(storage::Value value) const;

  /// Estimated selectivity of `column IN (values)`; values must be distinct.
  double InSelectivity(const std::vector<storage::Value>& values) const;

  /// Estimated selectivity of `lo <= column <= hi`.
  double RangeSelectivity(storage::Value lo, storage::Value hi) const;

  /// Selectivity of IS NULL / IS NOT NULL.
  double NullSelectivity() const;
  double NotNullSelectivity() const;

  double null_fraction() const {
    return row_count == 0 ? 0.0
                          : static_cast<double>(null_count) /
                                static_cast<double>(row_count);
  }
};

/// Statistics for all columns of one table.
struct TableStats {
  std::vector<ColumnStats> columns;
};

/// Number of MCVs and histogram buckets kept by Analyze (PostgreSQL's
/// default_statistics_target is 100; we keep the same shape).
constexpr int32_t kMcvTarget = 50;
constexpr int32_t kHistogramBuckets = 100;

/// Computes statistics for every column of `table` (a full-table ANALYZE;
/// the generated database is small enough not to need sampling). Values
/// are counted, not sorted, when a column's span is dense enough for a
/// storage::Index offset table; the output depends only on the data.
TableStats Analyze(const storage::Table& table);

}  // namespace lqolab::stats

#endif  // LQOLAB_STATS_COLUMN_STATS_H_
