#ifndef LQOLAB_ENGINE_SHARED_CONTEXT_H_
#define LQOLAB_ENGINE_SHARED_CONTEXT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "stats/column_stats.h"
#include "storage/index.h"
#include "storage/table.h"

namespace lqolab::engine {

/// The heap pages an index nested-loop join's inner fetches touch on one
/// table, in order: exec::kMaxPageLoop draws of an LCG seeded by the table
/// id, each modulo the table's page count (at least 1). The executor
/// charges a prefix of it per join (exec::Executor::ChargeRandomHeapPages).
/// Page numbers take 16 bits when the table has at most 65536 pages (every
/// table of both benchmark schemas at their benchmark scales), else 32;
/// exactly one of the two vectors is filled.
///
/// `next[i]` is the position of the next draw of draw i's page, or
/// exec::kMaxPageLoop when there is none. Draw i is the last access of its
/// page within a prefix of length L exactly when next[i] >= L, so the
/// executor picks a prefix's distinct pages in order of last access with
/// one compare per draw (storage::BufferPool::TryAccessDistinct). It costs
/// 40 KB a table: 0.8 MiB for IMDB's 21 tables, 0.3 MiB for TPC-H-lite's 8.
struct HeapProbePages {
  std::vector<uint16_t> narrow;
  std::vector<uint32_t> wide;
  std::vector<uint16_t> next;
};

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
  /// One entry per table; see HeapProbePages.
  std::vector<HeapProbePages> heap_probe_pages;
};

}  // namespace lqolab::engine

#endif  // LQOLAB_ENGINE_SHARED_CONTEXT_H_
