#include "exec/executor.h"

#include <algorithm>
#include <cmath>

#include "exec/cost_constants.h"
#include "faultlib/faultlib.h"
#include "obs/metrics.h"
#include "stats/cardinality_estimator.h"
#include "util/check.h"

namespace lqolab::exec {

using optimizer::JoinAlgo;
using optimizer::PhysicalPlan;
using optimizer::PlanNode;
using optimizer::ScanType;
using query::Query;
using storage::BufferPool;
using storage::PageKind;
using storage::RowId;
using util::VirtualNanos;

namespace {

double SafeLog2(double x) { return x < 2.0 ? 1.0 : std::log2(x); }

/// Adds `amount` (double nanoseconds) saturating at a large cap.
VirtualNanos SaturatingNanos(double amount) {
  constexpr double kCap = 9.0e17;
  if (amount >= kCap) return static_cast<VirtualNanos>(kCap);
  if (amount < 0.0) return 0;
  return static_cast<VirtualNanos>(amount);
}

}  // namespace

Executor::Executor(DbContext* ctx, Oracle* oracle)
    : ctx_(ctx), oracle_(oracle) {
  LQOLAB_CHECK(ctx != nullptr);
  LQOLAB_CHECK(oracle != nullptr);
}

uint64_t* Executor::PageKeys() {
  if (page_keys_ == nullptr) {
    page_keys_ = std::make_unique_for_overwrite<uint64_t[]>(kMaxPageLoop);
  }
  return page_keys_.get();
}

VirtualNanos Executor::ChargePages(const uint64_t* keys, int64_t n,
                                   bool sequential) {
  if (n == 0) return 0;
  pages_accessed_ += n;
  obs::Count(obs::Counter::kExecPagesAccessed, n);
  VirtualNanos total = 0;
  // Every buffer access is the canonical storage fault site. The hits are
  // taken per page, in page order, before the accesses: a hit's outcome
  // depends only on its index, so they fire exactly as they would
  // interleaved with the accesses. Errors latch into fault_status_ (the
  // walk aborts at the next node boundary); latency spikes charge extra
  // virtual time like a slow read.
  if (faultlib::FaultInjector* injector = faultlib::Current()) {
    for (int64_t i = 0; i < n; ++i) {
      const faultlib::FaultAction fault = injector->Hit("buffer.read_page");
      if (fault.is_error() && fault_status_.ok()) {
        fault_status_ = fault.error("buffer.read_page");
      }
      if (fault.is_latency()) total += fault.latency_ns;
    }
  }
  const BufferPool::TierCounts tiers = ctx_->buffer_pool->AccessMany(keys, n);
  return total + tiers.shared_hits * cost::kSharedHitNs +
         tiers.os_hits * cost::kOsHitNs +
         tiers.disk_reads *
             (sequential ? cost::kDiskSeqReadNs : cost::kDiskReadNs);
}

VirtualNanos Executor::ChargePageRange(catalog::TableId table, PageKind kind,
                                       catalog::ColumnId index_column,
                                       int64_t count, bool sequential) {
  if (count <= 0) return 0;
  // PageKey checks the last page's components, so the keys below it in
  // the same segment are valid too.
  const uint64_t first =
      BufferPool::PageKey(table, kind, index_column, count - 1) -
      static_cast<uint64_t>(count - 1);
  uint64_t* keys = PageKeys();
  VirtualNanos total = 0;
  for (int64_t begin = 0; begin < count; begin += kMaxPageLoop) {
    const int64_t n = std::min(kMaxPageLoop, count - begin);
    for (int64_t i = 0; i < n; ++i) {
      keys[i] = first + static_cast<uint64_t>(begin + i);
    }
    total += ChargePages(keys, n, sequential);
  }
  return total;
}

VirtualNanos Executor::ChargeHeapFetches(catalog::TableId table,
                                         const std::vector<RowId>& rows,
                                         bool page_ordered) {
  if (rows.empty()) return 0;
  // Row-ids are non-negative int32s, so every page is below kMaxPages.
  const uint64_t heap =
      BufferPool::PageKey(table, PageKind::kHeap, catalog::kInvalidColumn, 0);
  uint64_t* keys = PageKeys();
  VirtualNanos total = 0;
  const int64_t n = static_cast<int64_t>(rows.size());
  const int64_t step = std::max<int64_t>(1, n / kMaxPageLoop);
  int64_t charged = 0;
  int64_t batched = 0;
  int64_t last_page = -1;
  for (int64_t i = 0; i < n; i += step) {
    const int64_t page =
        storage::Table::PageOfRow(rows[static_cast<size_t>(i)]);
    if (page_ordered && page == last_page) continue;  // row-ids sorted: dedup
    last_page = page;
    keys[batched++] = heap | static_cast<uint64_t>(page);
    if (batched == kMaxPageLoop) {
      total += ChargePages(keys, batched, page_ordered);
      charged += batched;
      batched = 0;
    }
  }
  total += ChargePages(keys, batched, page_ordered);
  charged += batched;
  if (charged == 0) return 0;
  // Scale sampled charges back to the full fetch count (random-order scans
  // revisit pages; page-ordered ones were deduplicated above, so their
  // sample is already page-accurate up to the stride).
  const double scale = page_ordered ? static_cast<double>(step)
                                    : static_cast<double>(n) /
                                          static_cast<double>(charged);
  return SaturatingNanos(static_cast<double>(total) * scale);
}

VirtualNanos Executor::ChargeRandomHeapPages(catalog::TableId table,
                                             int64_t touches) {
  if (touches <= 0) return 0;
  if (heap_charge_log_ != nullptr) {
    heap_charge_log_->emplace_back(table, touches);
  }
  const int64_t loops = std::min(touches, kMaxPageLoop);
  const engine::HeapProbePages& pages =
      ctx_->shared->heap_probe_pages[static_cast<size_t>(table)];
  const uint64_t heap =
      BufferPool::PageKey(table, PageKind::kHeap, catalog::kInvalidColumn, 0);
  uint64_t* keys = PageKeys();
  if (pages.wide.empty()) {
    const uint16_t* narrow = pages.narrow.data();
    for (int64_t i = 0; i < loops; ++i) keys[i] = heap | narrow[i];
  } else {
    const uint32_t* wide = pages.wide.data();
    for (int64_t i = 0; i < loops; ++i) keys[i] = heap | wide[i];
  }
  const VirtualNanos total = ChargePages(keys, loops, /*sequential=*/false);
  const double scale =
      static_cast<double>(touches) / static_cast<double>(loops);
  return SaturatingNanos(static_cast<double>(total) * scale);
}

double Executor::ParallelSpeedup(int64_t driving_pages) const {
  const auto& cfg = ctx_->config;
  const int32_t workers =
      std::min({cfg.max_parallel_workers_per_gather, cfg.max_parallel_workers,
                cfg.max_worker_processes});
  if (workers <= 0 || driving_pages < cost::kParallelMinPages) return 1.0;
  const int64_t usable = std::min<int64_t>(
      workers,
      std::max<int64_t>(1, driving_pages / cost::kParallelPagesPerWorker));
  return 1.0 + cost::kParallelEfficiency * static_cast<double>(usable);
}

VirtualNanos Executor::ScanCost(const Query& q, const PlanNode& node,
                                bool* overflow) {
  *overflow = false;
  const cost::TupleCosts& tc = cost::kVectorizedTupleCosts;
  const catalog::TableId table_id =
      q.relations[static_cast<size_t>(node.alias)].table;
  const storage::Table& table = ctx_->table(table_id);
  const int64_t total_rows = table.row_count();
  const int64_t pages = table.page_count();
  const auto& preds = oracle_->BoundPredicates(q, node.alias);
  const int64_t pred_count = static_cast<int64_t>(preds.size());

  double cpu = 0.0;
  VirtualNanos io = 0;

  switch (node.scan_type) {
    case ScanType::kSeq: {
      io += ChargePageRange(table_id, PageKind::kHeap, catalog::kInvalidColumn,
                            pages, /*sequential=*/true);
      cpu = static_cast<double>(total_rows) *
            static_cast<double>(tc.scan_tuple + pred_count * tc.pred_eval);
      const double speedup = ParallelSpeedup(pages);
      return SaturatingNanos((cpu + static_cast<double>(io)) / speedup);
    }
    case ScanType::kIndex:
    case ScanType::kBitmap: {
      // Find the driving predicate (first one on the index column).
      size_t pred_index = preds.size();
      for (size_t i = 0; i < preds.size(); ++i) {
        if (preds[i].column == node.index_column) {
          pred_index = i;
          break;
        }
      }
      LQOLAB_CHECK_MSG(pred_index < preds.size(),
                       "index scan without driving predicate in " << q.id);
      const storage::Index* index = ctx_->FindIndex(table_id, node.index_column);
      LQOLAB_CHECK_MSG(index != nullptr, "missing index for scan in " << q.id);
      const auto& matched = oracle_->SinglePredicateRows(q, node.alias,
                                                         pred_index);
      const int64_t matches = static_cast<int64_t>(matched.size());
      const auto& pred = preds[pred_index];
      const int64_t descents =
          pred.kind == query::Predicate::Kind::kRange
              ? 1
              : std::max<int64_t>(1,
                                  static_cast<int64_t>(pred.values.size()));
      cpu += static_cast<double>(descents * index->height() *
                                 cost::kIndexDescentNs);
      // Leaf pages proportional to matches.
      const int64_t leaf_pages = std::max<int64_t>(1, matches / 256);
      io += ChargePageRange(table_id, PageKind::kIndexLeaf, node.index_column,
                            std::min(leaf_pages, kMaxPageLoop),
                            /*sequential=*/true);
      const int64_t residual = std::max<int64_t>(0, pred_count - 1);
      if (node.scan_type == ScanType::kIndex) {
        io += ChargeHeapFetches(table_id, matched, /*page_ordered=*/false);
        cpu += static_cast<double>(matches) *
               static_cast<double>(cost::kIndexRowFetchNs +
                                   residual * tc.pred_eval);
      } else {
        cpu += static_cast<double>(matches) *
               static_cast<double>(tc.bitmap_build);
        io += ChargeHeapFetches(table_id, matched, /*page_ordered=*/true);
        cpu += static_cast<double>(matches) *
               static_cast<double>(cost::kBitmapRowFetchNs +
                                   residual * tc.pred_eval);
      }
      return SaturatingNanos(cpu + static_cast<double>(io));
    }
    case ScanType::kTid: {
      // Only valid for id = const / id IN (...) predicates.
      size_t pred_index = preds.size();
      for (size_t i = 0; i < preds.size(); ++i) {
        if (preds[i].column == 0 &&
            (preds[i].kind == query::Predicate::Kind::kEq ||
             preds[i].kind == query::Predicate::Kind::kIn)) {
          pred_index = i;
          break;
        }
      }
      LQOLAB_CHECK_MSG(pred_index < preds.size(),
                       "tid scan without id predicate in " << q.id);
      const auto& matched =
          oracle_->SinglePredicateRows(q, node.alias, pred_index);
      io += ChargeHeapFetches(table_id, matched, /*page_ordered=*/true);
      cpu += static_cast<double>(matched.size()) *
             static_cast<double>(cost::kTidFetchNs +
                                 (pred_count - 1) * tc.pred_eval);
      return SaturatingNanos(cpu + static_cast<double>(io));
    }
  }
  return 0;
}

VirtualNanos Executor::JoinCost(const Query& q, const PhysicalPlan& plan,
                                const PlanNode& node, bool* overflow) {
  *overflow = false;
  const cost::TupleCosts& tc = cost::kVectorizedTupleCosts;
  const PlanNode& left = plan.node(node.left);
  const PlanNode& right = plan.node(node.right);
  const Oracle::CardResult in_l = oracle_->TrueJoinRows(q, left.mask);
  const Oracle::CardResult in_r = oracle_->TrueJoinRows(q, right.mask);
  const Oracle::CardResult out = oracle_->TrueJoinRows(q, node.mask);
  if (in_l.overflow || in_r.overflow || out.overflow) {
    *overflow = true;
    return 0;
  }
  const double rows_l = static_cast<double>(in_l.rows);
  const double rows_r = static_cast<double>(in_r.rows);
  const double rows_out = static_cast<double>(out.rows);
  const int64_t work_mem_bytes = engine::ScaledBytes(ctx_->config.work_mem_mb);

  double cpu = rows_out * static_cast<double>(tc.join_output);
  double io = 0.0;

  switch (node.algo) {
    case JoinAlgo::kHash: {
      cpu += rows_r * static_cast<double>(tc.hash_build) +
             rows_l * static_cast<double>(tc.hash_probe);
      const double build_bytes = rows_r * cost::kBytesPerTupleSlot;
      const double batches =
          std::max(1.0, build_bytes / static_cast<double>(work_mem_bytes));
      if (batches > 1.0) {
        // work_mem pressure: the build side spills to temp batches. This is
        // the allocation-pressure fault site for hash joins.
        const faultlib::FaultAction fault = LQOLAB_FAULT_POINT("buffer.alloc");
        if (fault.is_error() && fault_status_.ok()) {
          fault_status_ = fault.error("buffer.alloc");
        } else if (fault.is_latency()) {
          io += static_cast<double>(fault.latency_ns);
        }
        cpu *= 1.0 + cost::kSpillPassPenalty * SafeLog2(batches);
        // Spilled batches are written to and re-read from temp files.
        const double spill_pages =
            (rows_l + rows_r) / static_cast<double>(storage::kRowsPerPage);
        io += 2.0 * spill_pages * static_cast<double>(cost::kDiskSeqReadNs);
      }
      const double speedup =
          ParallelSpeedup(static_cast<int64_t>(rows_l) / storage::kRowsPerPage);
      return SaturatingNanos((cpu + io) / speedup);
    }
    case JoinAlgo::kNestLoop: {
      cpu += rows_l * rows_r * static_cast<double>(cost::kNlCompareNs);
      return SaturatingNanos(cpu + io);
    }
    case JoinAlgo::kIndexNlj: {
      // The inner must be a base relation with an index on the join column.
      LQOLAB_CHECK(right.type == PlanNode::Type::kScan);
      const auto edges = q.EdgesBetween(left.mask, right.mask);
      LQOLAB_CHECK(!edges.empty());
      const catalog::TableId inner_table =
          q.relations[static_cast<size_t>(right.alias)].table;
      const storage::Index* index = nullptr;
      catalog::ColumnId probe_column = catalog::kInvalidColumn;
      for (const auto& edge : edges) {
        index = ctx_->FindIndex(inner_table, edge.right_column);
        if (index != nullptr) {
          probe_column = edge.right_column;
          break;
        }
      }
      LQOLAB_CHECK_MSG(index != nullptr, "index NLJ without inner index");
      const auto& probe_stats = ctx_->column_stats(inner_table, probe_column);
      const double avg_matches =
          probe_stats.n_distinct > 0
              ? static_cast<double>(index->entry_count()) /
                    static_cast<double>(probe_stats.n_distinct)
              : 1.0;
      const double fetched = std::max(rows_out, rows_l * avg_matches);
      cpu += rows_l * static_cast<double>(index->height() *
                                          cost::kIndexDescentNs);
      cpu += fetched * static_cast<double>(cost::kIndexRowFetchNs);
      const auto& inner_preds = oracle_->BoundPredicates(q, right.alias);
      cpu += fetched * static_cast<double>(inner_preds.size()) *
             static_cast<double>(tc.pred_eval);
      io += static_cast<double>(
          ChargeRandomHeapPages(inner_table, static_cast<int64_t>(std::min(
                                                 fetched, 1.0e12))));
      return SaturatingNanos(cpu + io);
    }
    case JoinAlgo::kMerge: {
      auto sorted_for_free = [&](const PlanNode& child,
                                 catalog::ColumnId column) {
        return child.type == PlanNode::Type::kScan &&
               child.scan_type == ScanType::kIndex &&
               child.index_column == column;
      };
      const auto edges = q.EdgesBetween(left.mask, right.mask);
      LQOLAB_CHECK(!edges.empty());
      auto sort_cost = [&](double rows, bool free_sort) {
        if (free_sort || rows < 2.0) return 0.0;
        double c = rows * SafeLog2(rows) * cost::kSortItemNs;
        const double bytes = rows * cost::kBytesPerTupleSlot;
        if (bytes > static_cast<double>(work_mem_bytes)) {
          // work_mem pressure: external merge sort (see hash-spill site).
          const faultlib::FaultAction fault =
              LQOLAB_FAULT_POINT("buffer.alloc");
          if (fault.is_error() && fault_status_.ok()) {
            fault_status_ = fault.error("buffer.alloc");
          } else if (fault.is_latency()) {
            io += static_cast<double>(fault.latency_ns);
          }
          c *= 1.0 + cost::kSpillPassPenalty;
          io += 2.0 * (rows / storage::kRowsPerPage) *
                static_cast<double>(cost::kDiskSeqReadNs);
        }
        return c;
      };
      cpu += sort_cost(rows_l, sorted_for_free(left, edges[0].left_column));
      cpu += sort_cost(rows_r, sorted_for_free(right, edges[0].right_column));
      cpu += (rows_l + rows_r) * static_cast<double>(cost::kMergeStepNs);
      return SaturatingNanos(cpu + io);
    }
  }
  return 0;
}

ExecutionResult Executor::Execute(const Query& q, const PhysicalPlan& plan,
                                  VirtualNanos timeout_ns,
                                  double time_multiplier,
                                  const QueryDeadline* deadline,
                                  ReplanMonitor* monitor) {
  LQOLAB_CHECK(!plan.empty());
  ExecutionResult result;
  result.node_stats.assign(plan.nodes.size(), PlanNodeStats{});
  pages_accessed_ = 0;
  fault_status_ = util::Status::Ok();

  double total = static_cast<double>(cost::kExecStartupNs);
  bool overflow = false;

  // Nodes are stored in construction order, so children precede parents:
  // a simple forward walk is bottom-up. Skip inner scans of index-NLJ
  // joins (they are probed, not scanned).
  std::vector<char> skip(plan.nodes.size(), 0);
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const PlanNode& node = plan.nodes[i];
    if (node.type == PlanNode::Type::kJoin &&
        node.algo == JoinAlgo::kIndexNlj) {
      skip[static_cast<size_t>(node.right)] = 1;
    }
  }

  // Intermediate reuse across replan attempts: a subset an abandoned
  // attempt already materialized (monitor->materialized) is read back at
  // per-tuple spool cost instead of recomputed, and its entire subtree is
  // elided. Marked top-down (parents have higher indices) so the highest
  // reusable subset wins and everything beneath it is covered.
  std::vector<char> reused(plan.nodes.size(), 0);
  std::vector<char> covered(plan.nodes.size(), 0);
  if (monitor != nullptr && !monitor->materialized.empty()) {
    const uint32_t root_mask = plan.node(plan.root).mask;
    for (size_t i = plan.nodes.size(); i-- > 0;) {
      const PlanNode& node = plan.nodes[i];
      if (!covered[i] && !skip[i] && node.mask != root_mask &&
          monitor->materialized.count(node.mask) != 0) {
        reused[i] = 1;
      }
      if ((covered[i] || reused[i]) && node.type == PlanNode::Type::kJoin) {
        covered[static_cast<size_t>(node.left)] = 1;
        covered[static_cast<size_t>(node.right)] = 1;
      }
    }
  }

  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    // Node boundary: the cancellation poll point and the landing spot for
    // any fault latched inside the previous node's page charges.
    if (deadline != nullptr && deadline->cancelled()) {
      result.status = util::Status(deadline->code(), "execution cancelled");
      obs::Count(obs::Counter::kExecCancelled);
      break;
    }
    if (!fault_status_.ok()) break;
    const faultlib::FaultAction node_fault = LQOLAB_FAULT_POINT("exec.node");
    if (node_fault.is_error()) {
      fault_status_ = node_fault.error("exec.node");
      break;
    }
    if (node_fault.is_latency()) {
      total += static_cast<double>(node_fault.latency_ns);
    }
    const PlanNode& node = plan.nodes[i];
    PlanNodeStats& stats = result.node_stats[i];
    if (covered[i]) continue;  // Subtree replaced by a reused intermediate.
    if (reused[i]) {
      // Read the spooled rows back instead of recomputing the subtree. The
      // row set of an alias mask is join-order-independent, so this is
      // result-identical; its cardinality was observed by the attempt that
      // materialized it, so the divergence check would be a no-op.
      const int64_t rows = monitor->materialized.at(node.mask);
      stats.actual_rows = rows;
      const VirtualNanos node_cost = SaturatingNanos(
          static_cast<double>(rows) *
          static_cast<double>(cost::kVectorizedTupleCosts.scan_tuple));
      stats.self_time_ns =
          SaturatingNanos(static_cast<double>(node_cost) * time_multiplier);
      total += static_cast<double>(node_cost);
      if (total * time_multiplier >= static_cast<double>(timeout_ns)) break;
      continue;
    }
    if (monitor != nullptr) {
      // Divergence check against the estimate the planner believed, done as
      // the node's output cardinality becomes known and before its parent
      // (or this node's own cost) is charged. The estimator call goes
      // through the same pin/poison layers planning went through.
      const Oracle::CardResult actual = oracle_->TrueJoinRows(q, node.mask);
      if (!actual.overflow) {
        monitor->observed.emplace_back(node.mask, actual.rows);
        const bool is_root = node.mask == plan.node(plan.root).mask;
        const bool pinned =
            monitor->pins != nullptr && monitor->pins->Has(node.mask);
        if (!is_root && !pinned && monitor->estimator != nullptr) {
          const double est = std::max(
              1.0, monitor->estimator->EstimateJoinRows(q, node.mask));
          const double act = std::max(1.0, static_cast<double>(actual.rows));
          const double qerr = act > est ? act / est : est / act;
          if (qerr >= monitor->qerror_threshold &&
              std::max(est, act) >= static_cast<double>(monitor->min_rows)) {
            result.replan_requested = true;
            result.replan_node = i;
            result.replan_qerror = qerr;
            break;
          }
        }
      }
    }
    const BufferPool& pool = *ctx_->buffer_pool;
    const int64_t shared_before = pool.shared_hits();
    const int64_t os_before = pool.os_hits();
    const int64_t disk_before = pool.disk_reads();
    bool node_overflow = false;
    VirtualNanos node_cost = 0;
    if (node.type == PlanNode::Type::kScan) {
      const Oracle::CardResult rows = oracle_->TrueJoinRows(q, node.mask);
      stats.actual_rows = rows.rows;
      if (!skip[i]) {
        node_cost = ScanCost(q, node, &node_overflow);
      }
    } else {
      const Oracle::CardResult rows = oracle_->TrueJoinRows(q, node.mask);
      stats.actual_rows = rows.overflow ? -1 : rows.rows;
      node_cost = JoinCost(q, plan, node, &node_overflow);
      if (node.algo == JoinAlgo::kIndexNlj && !node_overflow) {
        // The probed inner scan restarts once per outer row (memoized
        // oracle lookup — JoinCost already requested this cardinality).
        const Oracle::CardResult outer =
            oracle_->TrueJoinRows(q, plan.node(node.left).mask);
        result.node_stats[static_cast<size_t>(node.right)].loops =
            outer.overflow ? -1 : std::max<int64_t>(1, outer.rows);
      }
    }
    stats.shared_hits = pool.shared_hits() - shared_before;
    stats.os_hits = pool.os_hits() - os_before;
    stats.disk_reads = pool.disk_reads() - disk_before;
    if (node_overflow) {
      overflow = true;
      break;
    }
    stats.self_time_ns =
        SaturatingNanos(static_cast<double>(node_cost) * time_multiplier);
    total += static_cast<double>(node_cost);
    if (total * time_multiplier >= static_cast<double>(timeout_ns)) break;
  }

  result.pages_accessed = pages_accessed_;
  const double scaled = total * time_multiplier;
  if (result.replan_requested) {
    // Abandoned attempt: report the prefix latency already paid and the
    // intermediates that prefix fully materialized (probed index-NLJ
    // inners and elided subtrees excluded), so the re-execution can reuse
    // rather than recompute them; the adaptive loop re-plans with the
    // observed truths pinned.
    for (size_t j = 0; j < result.replan_node; ++j) {
      const int64_t rows = result.node_stats[j].actual_rows;
      if (skip[j] || covered[j] || rows < 0) continue;
      result.completed.emplace_back(plan.nodes[j].mask, rows);
    }
    result.execution_ns =
        SaturatingNanos(std::min(scaled, static_cast<double>(timeout_ns)));
    return result;
  }
  if (result.status.ok() && !fault_status_.ok()) {
    // A fault latched during the final node never reached a boundary check.
    result.status = fault_status_;
  }
  if (!result.status.ok()) {
    // Cancelled or faulted mid-plan: report the partial latency, no rows.
    result.execution_ns =
        SaturatingNanos(std::min(scaled, static_cast<double>(timeout_ns)));
    return result;
  }
  if (overflow || scaled >= static_cast<double>(timeout_ns)) {
    result.timed_out = true;
    result.execution_ns = timeout_ns;
    result.status = util::Status(util::StatusCode::kDeadlineExceeded,
                                 "statement timeout");
    return result;
  }
  result.execution_ns = SaturatingNanos(scaled);
  const Oracle::CardResult final_rows =
      oracle_->TrueJoinRows(q, plan.node(plan.root).mask);
  result.result_rows = final_rows.overflow ? 0 : final_rows.rows;
  return result;
}

}  // namespace lqolab::exec
