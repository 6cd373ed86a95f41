#ifndef LQOLAB_EXEC_EXECUTOR_H_
#define LQOLAB_EXEC_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/db_context.h"
#include "exec/deadline.h"
#include "exec/oracle.h"
#include "optimizer/physical_plan.h"
#include "query/query.h"
#include "util/status.h"
#include "util/virtual_clock.h"

namespace lqolab::stats {
class CardinalityEstimator;
}  // namespace lqolab::stats

namespace lqolab::exec {

/// Per-operator runtime statistics of one execution (parallel to
/// plan.nodes). Pure observation: collecting these never charges virtual
/// time or mutates cache state, so executions replay bit-identically
/// whether or not anyone reads them. Rendered by obs/explain.h as
/// EXPLAIN ANALYZE.
struct PlanNodeStats {
  /// True output rows (-1 where the oracle count overflowed).
  int64_t actual_rows = 0;
  /// Times the operator was (re)started: 1 everywhere except the probed
  /// inner scan of an index nested-loop join (one probe per outer row).
  int64_t loops = 1;
  /// Virtual time charged by this node alone (children excluded), after
  /// warm-up/noise scaling. Index-NLJ inner probes are charged to the
  /// join. Zero for nodes skipped by a timeout or overflow.
  util::VirtualNanos self_time_ns = 0;
  /// Buffer-cache tier breakdown of this node's page accesses.
  int64_t shared_hits = 0;
  int64_t os_hits = 0;
  int64_t disk_reads = 0;
};

/// Opt-in mid-query divergence monitor (adaptive re-optimization,
/// docs/overload.md). When passed to Execute, every node's observed true
/// cardinality is compared against the estimate the planner believed (the
/// same call path, so an armed "stats.estimate" poison is seen identically);
/// when the q-error crosses `qerror_threshold` on a subset big enough to
/// matter, the walk stops with ExecutionResult::replan_requested and the
/// partial latency already paid. Masks in `pins` were observed by an earlier
/// attempt and never re-trigger. Divergence is detected as a node's output
/// materializes, before its parent consumes it, so the diverging node's own
/// cost is not charged to the abandoned attempt.
struct ReplanMonitor {
  const stats::CardinalityEstimator* estimator = nullptr;
  const CardinalityPins* pins = nullptr;
  /// Trigger when max(actual/est, est/actual) >= this.
  double qerror_threshold = 8.0;
  /// ... and max(actual, estimate) >= this (small subsets cannot hurt).
  int64_t min_rows = 1024;
  /// Out: (alias mask, true rows) of every node the walk observed before
  /// stopping, including the diverging node — the truths the re-plan pins.
  std::vector<std::pair<uint32_t, int64_t>> observed;
  /// In: mask -> rows of intermediates fully computed (and charged) by an
  /// earlier abandoned attempt. A join result for an alias mask is the same
  /// row set under any join order, so a re-execution that needs one of
  /// these subsets reads the spooled intermediate (rows * kMatReadNs)
  /// instead of recomputing its whole subtree — the POP/Rio-style
  /// checkpoint reuse that makes abandoning a bad plan affordable. Fed by
  /// ExecutionResult::completed (see Database::ExecutePlan).
  std::unordered_map<uint32_t, int64_t> materialized;
};

/// Outcome of one (simulated) plan execution.
struct ExecutionResult {
  /// Outcome classification: OK on success, kDeadlineExceeded when
  /// `timed_out`, the cancel code (kCancelled/kShutdown) when a
  /// QueryDeadline aborted the walk, or the injected code of a faultlib
  /// error (kUnavailable/kResourceExhausted). Non-OK results report the
  /// partial latency accumulated before the abort and zero result_rows.
  util::Status status;
  /// Simulated execution latency. Equals the timeout when `timed_out`.
  util::VirtualNanos execution_ns = 0;
  bool timed_out = false;
  /// True result cardinality of the query (0 when timed out).
  int64_t result_rows = 0;
  /// Heap/index pages touched through the buffer cache.
  int64_t pages_accessed = 0;

  /// The walk stopped because a ReplanMonitor flagged divergence; status is
  /// OK, execution_ns holds the wasted prefix latency, result_rows is 0.
  bool replan_requested = false;
  /// Index of the diverging node and its q-error (when replan_requested).
  size_t replan_node = 0;
  double replan_qerror = 0.0;
  /// When replan_requested: (mask, rows) of every node fully charged before
  /// the walk stopped — intermediates the abandoned attempt materialized.
  /// The adaptive loop merges these into ReplanMonitor::materialized so the
  /// next attempt reuses instead of recomputes them.
  std::vector<std::pair<uint32_t, int64_t>> completed;

  /// Per plan node: rows/loops/time/buffer breakdown (parallel to
  /// plan.nodes; join nodes whose subset overflowed report actual_rows -1).
  std::vector<PlanNodeStats> node_stats;
};

/// Maximum buffer-pool accesses charged per page loop; larger fetch counts
/// are sampled and the cost scaled, keeping real time bounded. Also the
/// length of every engine::HeapProbePages sequence.
inline constexpr int64_t kMaxPageLoop = 20'000;

/// Virtual-time executor. Walks a physical plan bottom-up, obtains every
/// node's true input/output cardinalities from the Oracle, and charges
/// simulated nanoseconds: per-tuple CPU by operator type and per-page costs
/// through the two-tier buffer cache (which this mutates — executions have
/// side effects on cache state, the mechanism behind Fig. 4).
///
/// The work done per execution is O(plan size + pages touched), independent
/// of how catastrophic the plan is: true cardinalities are memoized in the
/// oracle and the arithmetic is analytic. Timeouts are therefore free.
///
/// Every page loop (sequential scan, index leaves, heap fetches, index-NLJ
/// inner fetches) fills a scratch array of page keys and charges it with
/// one ChargePages call: one storage::BufferPool::AccessMany, one counter
/// update, and per-page fault hits only while a fault injector is
/// installed. Index-NLJ inner fetches first offer the pool their distinct
/// pages (storage::BufferPool::TryAccessDistinct), which charges the same
/// tiers when no access can evict.
class Executor {
 public:
  Executor(DbContext* ctx, Oracle* oracle);

  /// Executes `plan` for `q`. `time_multiplier` scales all charges (used by
  /// the engine for warm-up state and execution noise); `timeout_ns` bounds
  /// the reported latency, marking the result timed out. A non-null
  /// `deadline` is polled at every plan-node boundary so another thread can
  /// cancel the walk mid-plan (result.status carries the cancel code). A
  /// non-null `monitor` arms mid-query divergence detection (see
  /// ReplanMonitor).
  ExecutionResult Execute(const query::Query& q,
                          const optimizer::PhysicalPlan& plan,
                          util::VirtualNanos timeout_ns,
                          double time_multiplier = 1.0,
                          const QueryDeadline* deadline = nullptr,
                          ReplanMonitor* monitor = nullptr);

  /// Charges `touches` random page touches of `table`'s heap (index-NLJ
  /// inner fetches, whose row-ids are not materialized): the first
  /// min(touches, kMaxPageLoop) pages of the table's
  /// engine::HeapProbePages, cost scaled to `touches`. After the per-page
  /// fault hits it writes the prefix's distinct pages, in order of last
  /// draw (HeapProbePages::next), to the scratch array and offers them to
  /// BufferPool::TryAccessDistinct; only when the pool refuses does it
  /// write every draw and call AccessMany. Either way the tiers, counters
  /// and cost are those of one Access per draw. Public so
  /// bench/micro_engine can replay recorded calls through it.
  util::VirtualNanos ChargeRandomHeapPages(catalog::TableId table,
                                           int64_t touches);

  /// (table, touches) of one ChargeRandomHeapPages call.
  using HeapCharge = std::pair<catalog::TableId, int64_t>;

  /// Appends every ChargeRandomHeapPages call to `*log` until called again
  /// with nullptr; recording changes no charge. bench/micro_engine uses it
  /// to replay the heap charges of a real execution.
  void RecordHeapCharges(std::vector<HeapCharge>* log) {
    heap_charge_log_ = log;
  }

 private:
  /// Charges the accesses of keys[0..n) in order and returns their cost:
  /// n buffer.read_page fault hits in page order first (only while a fault
  /// injector is installed), then one BufferPool::AccessMany, each tier's
  /// count times its cost. `sequential` selects the cheaper read-ahead disk
  /// cost on a miss.
  util::VirtualNanos ChargePages(const uint64_t* keys, int64_t n,
                                 bool sequential);

  /// Adds n to the page counters and takes n buffer.read_page fault hits
  /// (only while a fault injector is installed); returns their latency.
  util::VirtualNanos CountPages(int64_t n);

  /// Each tier's count times its cost; `sequential` selects the read-ahead
  /// disk cost.
  static util::VirtualNanos TierCost(
      const storage::BufferPool::TierCounts& tiers, bool sequential);

  /// Charges pages 0..count-1 of one heap or index segment in order, in
  /// batches of at most kMaxPageLoop.
  util::VirtualNanos ChargePageRange(catalog::TableId table,
                                     storage::PageKind kind,
                                     catalog::ColumnId index_column,
                                     int64_t count, bool sequential);

  /// Charges page accesses for `count` heap fetches given by row-ids,
  /// sampling at most kMaxPageLoop accesses and scaling the charge.
  util::VirtualNanos ChargeHeapFetches(catalog::TableId table,
                                       const std::vector<storage::RowId>& rows,
                                       bool page_ordered);

  /// The reused scratch array of kMaxPageLoop page keys, allocated on first
  /// use.
  uint64_t* PageKeys();

  util::VirtualNanos ScanCost(const query::Query& q,
                              const optimizer::PlanNode& node,
                              bool* overflow);
  util::VirtualNanos JoinCost(const query::Query& q,
                              const optimizer::PhysicalPlan& plan,
                              const optimizer::PlanNode& node, bool* overflow);

  double ParallelSpeedup(int64_t driving_pages) const;

  DbContext* ctx_;
  Oracle* oracle_;
  int64_t pages_accessed_ = 0;
  std::unique_ptr<uint64_t[]> page_keys_;
  std::vector<HeapCharge>* heap_charge_log_ = nullptr;
  /// First injected fault error of the current execution (sticky until the
  /// node-boundary check aborts the walk); OK when no fault fired.
  util::Status fault_status_;
};

}  // namespace lqolab::exec

#endif  // LQOLAB_EXEC_EXECUTOR_H_
