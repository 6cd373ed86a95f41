#ifndef LQOLAB_EXEC_DB_CONTEXT_H_
#define LQOLAB_EXEC_DB_CONTEXT_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "engine/config.h"
#include "engine/shared_context.h"
#include "stats/column_stats.h"
#include "storage/buffer_pool.h"
#include "storage/index.h"
#include "storage/table.h"

namespace lqolab::exec {

/// Observed true cardinalities pinned into the estimator during mid-query
/// adaptive re-optimization (docs/overload.md). Keys are query-relative
/// alias masks (query::AliasMask, kept as a plain uint32_t here to avoid an
/// include cycle with query/). A pinned mask short-circuits every estimate
/// for that alias set — including any armed "stats.estimate" poison fault —
/// so a re-plan sees ground truth for the already-executed prefix.
struct CardinalityPins {
  std::unordered_map<uint32_t, double> rows;

  bool empty() const { return rows.empty(); }
  bool Has(uint32_t mask) const { return rows.find(mask) != rows.end(); }
  /// Pinned rows for `mask`, or a negative value when unpinned.
  double Lookup(uint32_t mask) const {
    auto it = rows.find(mask);
    return it == rows.end() ? -1.0 : it->second;
  }
  void Pin(uint32_t mask, double r) { rows[mask] = r < 1.0 ? 1.0 : r; }
};

/// Per-replica view of one database instance used by the estimator, planner
/// and executor. Owned and assembled by engine::Database.
///
/// All immutable post-build state (catalog, column segments, indexes,
/// statistics) lives in one engine::SharedContext referenced here by
/// shared_ptr: worker replicas copy the pointer, never the data.
/// What remains in the context itself is exactly the per-replica mutable
/// state — the buffer pool and configuration.
struct DbContext {
  /// Convenience alias for `&shared->schema` (kept as a raw pointer because
  /// query generation and plan encoding take the schema standalone).
  const catalog::Schema* schema = nullptr;
  std::shared_ptr<const engine::SharedContext> shared;
  /// The replica's buffer cache: every heap and index page charge goes
  /// through it.
  std::unique_ptr<storage::BufferPool> buffer_pool;
  engine::DbConfig config;
  /// Installed (non-null) only while engine::Database::ExecutePlan is
  /// re-planning (DbConfig::adaptive_replan); consulted first by
  /// stats::CardinalityEstimator. Owned by the adaptive loop, never by the
  /// context.
  const CardinalityPins* card_pins = nullptr;
  /// Installed (non-null) only while ExecutePlan is re-planning:
  /// alias mask -> true rows of every intermediate an abandoned attempt
  /// fully materialized. The planner prices these subsets at spool re-read
  /// cost (optimizer/planner.cc) so a re-plan gravitates toward work
  /// already paid for, and the executor elides their subtrees at run time
  /// (exec::ReplanMonitor::materialized). Owned by the adaptive loop.
  const std::unordered_map<uint32_t, int64_t>* spooled = nullptr;

  const std::vector<std::shared_ptr<storage::Table>>& tables() const {
    return shared->tables;
  }

  const storage::Table& table(catalog::TableId id) const {
    return *shared->tables[static_cast<size_t>(id)];
  }

  /// Index on (table, column) or nullptr.
  const storage::Index* FindIndex(catalog::TableId table,
                                  catalog::ColumnId column) const {
    auto it = shared->indexes.find({table, column});
    return it == shared->indexes.end() ? nullptr : it->second.get();
  }

  const std::vector<stats::TableStats>& table_stats() const {
    return shared->table_stats;
  }

  const stats::ColumnStats& column_stats(catalog::TableId table,
                                         catalog::ColumnId column) const {
    return shared->table_stats[static_cast<size_t>(table)]
        .columns[static_cast<size_t>(column)];
  }
};

}  // namespace lqolab::exec

#endif  // LQOLAB_EXEC_DB_CONTEXT_H_
