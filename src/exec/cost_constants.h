#ifndef LQOLAB_EXEC_COST_CONSTANTS_H_
#define LQOLAB_EXEC_COST_CONSTANTS_H_

#include <cstdint>

#include "util/virtual_clock.h"

namespace lqolab::exec {

/// Virtual-time constants charged by the executor. These are the calibration
/// points of the simulation (DESIGN.md §1): per-page costs by cache tier and
/// per-tuple CPU costs by operator. Values are loosely scaled to commodity
/// hardware (8 KiB page reads, hash-join throughput of ~10M tuples/s).
namespace cost {

using util::VirtualNanos;

// --- Page access by buffer tier ------------------------------------------
inline constexpr VirtualNanos kSharedHitNs = 500;
inline constexpr VirtualNanos kOsHitNs = 4'000;
inline constexpr VirtualNanos kDiskReadNs = 100'000;
/// Sequential disk reads amortize readahead.
inline constexpr VirtualNanos kDiskSeqReadNs = 25'000;

// --- Scans ----------------------------------------------------------------
/// Per heap tuple visited by a sequential scan.
inline constexpr VirtualNanos kScanTupleNs = 40;
/// Additional CPU per predicate evaluation per visited tuple.
inline constexpr VirtualNanos kPredEvalNs = 12;
/// B-tree descent per level.
inline constexpr VirtualNanos kIndexDescentNs = 400;
/// Per heap tuple fetched through an index (random order).
inline constexpr VirtualNanos kIndexRowFetchNs = 150;
/// Per heap tuple fetched by a bitmap heap scan (page-ordered).
inline constexpr VirtualNanos kBitmapRowFetchNs = 60;
/// Per row-id collected by a bitmap index scan (incl. sort).
inline constexpr VirtualNanos kBitmapBuildNs = 25;
/// Per tuple fetched directly by ctid.
inline constexpr VirtualNanos kTidFetchNs = 200;

// --- Joins ----------------------------------------------------------------
inline constexpr VirtualNanos kHashBuildNs = 120;
inline constexpr VirtualNanos kHashProbeNs = 80;
inline constexpr VirtualNanos kNlCompareNs = 12;
inline constexpr VirtualNanos kMergeStepNs = 30;
/// n log2(n) coefficient for in-memory sort.
inline constexpr VirtualNanos kSortItemNs = 18;
inline constexpr VirtualNanos kJoinOutputNs = 40;
/// Bytes a tuple occupies in a hash table / sort buffer (spill decisions).
inline constexpr int64_t kBytesPerTupleSlot = 48;
/// CPU penalty multiplier per extra hash-batch / sort-merge pass.
inline constexpr double kSpillPassPenalty = 0.55;

// --- Executor per-tuple CPU costs -----------------------------------------
/// The per-tuple CPU constants the executor charges. The batched kernels
/// (exec/kernels.h) amortize interpretation overhead across kBatchRows-row
/// strides, so the executor's clock runs on a recalibrated set of the six
/// tuple-at-a-time constants above. Page/IO costs and the nested-loop
/// compare are unaffected (batching changes neither page access nor the
/// NLJ inner loop). The planner's CostModel deliberately stays on the
/// tuple-at-a-time constants (optimizer/cost_model.cc).
struct TupleCosts {
  VirtualNanos scan_tuple;
  VirtualNanos pred_eval;
  VirtualNanos bitmap_build;
  VirtualNanos hash_build;
  VirtualNanos hash_probe;
  VirtualNanos join_output;
};

/// Calibrated against micro_engine's measured tuple-at-a-time vs batched
/// row throughput (BENCH_engine.json; method in docs/execution.md): the
/// batch kernels run the filter and hash-join loops ≥3x faster, so the
/// virtual clock charges roughly a third per tuple, with the ratios between
/// operators preserved so relative plan quality keeps its shape.
inline constexpr TupleCosts kVectorizedTupleCosts{
    /*scan_tuple=*/13, /*pred_eval=*/4,   /*bitmap_build=*/8,
    /*hash_build=*/36, /*hash_probe=*/24, /*join_output=*/14};

// --- Parallel execution ----------------------------------------------------
/// Pages below which a scan is not parallelized.
inline constexpr int64_t kParallelMinPages = 1'000;
/// Pages of driving data per additional worker.
inline constexpr int64_t kParallelPagesPerWorker = 2'000;
/// Effective speedup fraction contributed by each worker.
inline constexpr double kParallelEfficiency = 0.7;

// --- Plan / statement overheads --------------------------------------------
/// Executor startup (plan initialization, snapshot).
inline constexpr VirtualNanos kExecStartupNs = 200'000;
/// Planner cost per DP subproblem or GEQO individual evaluated.
inline constexpr VirtualNanos kPlanStepNs = 2'000;
/// Planner baseline per relation in the FROM list.
inline constexpr VirtualNanos kPlanPerRelationNs = 120'000;
/// Extra planner probing per step when effective_cache_size is small
/// relative to the database (see DESIGN.md: Table 2 planning-time effect).
inline constexpr VirtualNanos kPlanColdProbeNs = 220'000;

// --- Hot/cold run-state warm-up --------------------------------------------
/// First execution of a query signature pays this extra fraction
/// (relcache/JIT warm-up, §7.3 / Fig. 4: ~14.6% drop after the 1st run).
inline constexpr double kFirstRunPenalty = 0.185;
/// Second execution still pays a small residue (~1% drop after the 2nd).
inline constexpr double kSecondRunPenalty = 0.014;
/// Log-normal execution noise (sigma of ln-scale).
inline constexpr double kNoiseSigma = 0.02;

/// Caps on one join of the true-cardinality oracle (Oracle::JoinWithBase);
/// a subset whose materialization passes one is treated as timed out. The
/// first two are decided on what the intermediate stores: distinct rows,
/// and cells (a row id is one cell, a weight two), which bound memory.
/// The third bounds the join's work: the base rows its probe loop visits,
/// which a join whose stored result stays small can still multiply.
inline constexpr int64_t kMaxIntermediateRows = 12'000'000;
inline constexpr int64_t kMaxIntermediateCells = 64'000'000;
inline constexpr int64_t kMaxVisitedPairs = 400'000'000;
// The oracle's merge slots hold int32 indices of stored rows.
static_assert(kMaxIntermediateRows <= INT32_MAX);

}  // namespace cost

}  // namespace lqolab::exec

#endif  // LQOLAB_EXEC_COST_CONSTANTS_H_
