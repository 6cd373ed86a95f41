#ifndef LQOLAB_ENGINE_SHARED_CONTEXT_H_
#define LQOLAB_ENGINE_SHARED_CONTEXT_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "stats/column_stats.h"
#include "storage/index.h"
#include "storage/table.h"

namespace lqolab::engine {

/// Everything about a database that is immutable once the build pipeline
/// (datagen -> BuildIndexes -> ANALYZE) has run: the catalog, the column
/// segments and their string dictionaries, the secondary indexes and the
/// per-column statistics (MCVs, histograms).
///
/// Database assembles one SharedContext per build, then freezes it behind
/// `shared_ptr<const SharedContext>`. Worker replicas
/// (Database::CloneContextForWorker) copy only that pointer — cloning is
/// O(1) regardless of data size — and layer their own mutable state (buffer
/// pool, warm-up counters, noise RNG, metrics sinks) on top in
/// exec::DbContext. Nothing here is written after the freeze, so concurrent
/// readers need no synchronization (tests/test_parallel_runner.cc stresses
/// this under TSAN).
struct SharedContext {
  catalog::Schema schema;
  std::vector<std::shared_ptr<storage::Table>> tables;
  /// Secondary indexes keyed by (table, column).
  std::map<std::pair<catalog::TableId, catalog::ColumnId>,
           std::shared_ptr<storage::Index>>
      indexes;
  /// ANALYZE output, one entry per table.
  std::vector<stats::TableStats> table_stats;
};

}  // namespace lqolab::engine

#endif  // LQOLAB_ENGINE_SHARED_CONTEXT_H_
