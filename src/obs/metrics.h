#ifndef LQOLAB_OBS_METRICS_H_
#define LQOLAB_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <string>

namespace lqolab::obs {

/// Identity of every counter the engine can emit. Counters are fixed at
/// compile time so the hot-path increment is an array add, not a hash
/// lookup; names/layers for rendering live in CounterName()/CounterLayer()
/// and the reference table in docs/observability.md.
enum class Counter : int32_t {
  // storage
  kBufferSharedHits = 0,  ///< Page served from shared buffers.
  kBufferOsHits,          ///< Page served from the OS page-cache tier.
  kBufferDiskReads,       ///< Page read from (virtual) disk.
  kBufferEvictions,       ///< LRU evictions across both cache tiers.
  // exec
  kExecPagesAccessed,       ///< Buffer-pool operations charged by the executor.
  kExecPlansExecuted,       ///< Plan executions through engine::Database.
  kExecTimeouts,            ///< Executions that hit the statement timeout.
  kExecCancelled,           ///< Executions aborted by a QueryDeadline cancel.
  kOracleCardinalityCalls,  ///< True-cardinality requests to exec::Oracle.
  kOracleIndexJoins,        ///< Whole-table joins probed via a shared index.
  kOracleHashBuilds,        ///< Join build tables built over base rows or
                            ///< a held intermediate, offset-table or
                            ///< open-addressing alike.
  kOracleBaseReuses,        ///< Filtered bases served by the base cache.
  kOracleBuildReuses,       ///< Joins probing a cached build table.
  kOracleBloomBuilds,       ///< Predicate-transfer Bloom filters built.
  kOracleIntermediateRows,  ///< Rows the oracle's joins write: one per
                            ///< distinct kept (frontier) tuple.
  kOracleIntermediateCells,  ///< Row-id cells of those rows.
  kOracleHeldJoins,         ///< Subsets joined from two held intermediates.
  kOracleFreshEvaluations,  ///< Subsets of 3+ aliases evaluated fresh
                            ///< (semi-join reduced): no held split.
  kExecReplans,             ///< Mid-query cancel-and-replan rounds taken.
  kExecReplanNoChange,      ///< Replans whose new plan equalled the old one.
  kExecReplanCapped,        ///< Final attempts forced straight-through by
                            ///< the replan_max_per_query cap.
  // optimizer
  kPlannerInvocations,      ///< Planner::Plan entry points.
  kPlannerDpSubproblems,    ///< DP subproblems enumerated (join-order search).
  kPlannerGeqoGenerations,  ///< GEQO generations evolved.
  kPlannerGeqoPlansCosted,  ///< Join orders costed by GEQO fitness.
  // lqo
  kHintSetsPlanned,  ///< Bao-style per-hint-set planner round trips.
  kHintFailures,     ///< Plans that violated their hint set (soft enable_*).
  kTrainEpisodes,    ///< LQO training episodes recorded.
  // serve
  kPlanCacheHits,       ///< Plan-cache lookups served from the cache.
  kPlanCacheMisses,     ///< Plan-cache lookups that had to plan.
  kPlanCacheEvictions,  ///< Cached plans dropped (capacity or Clear).
  kServeQueries,        ///< Queries served to completion by a QueryServer.
  kServeRejected,       ///< Open-loop admissions refused on a full queue.
  kServeFallbacks,      ///< LQO-plan timeouts re-executed on the pglite plan.
  kServeLqoPlanned,     ///< Inference calls through the published model.
  kServeModelSwaps,     ///< Models published to a hot-swap slot.
  kServeRetries,        ///< Re-executions after a retryable transient fault.
  kServeShutdownDropped,  ///< Refused or dropped as kShutdown at shutdown.
  kServeInferFaults,      ///< Inference faults absorbed by routing native.
  kServeBreakerTrips,          ///< Circuit breaker kClosed -> kOpen edges.
  kServeBreakerShortCircuits,  ///< LQO requests short-circuited while open.
  kServeBreakerProbes,         ///< Half-open probe requests let through.
  kServeBreakerRecoveries,     ///< Circuit breaker kHalfOpen -> kClosed edges.
  kServeSqlQueries,       ///< SQL-text admissions bound and queued (SubmitSql).
  kServeSqlRejected,      ///< SQL-text admissions refused at parse/bind.
  kServeOpenLoopQueries,  ///< Open-loop (SubmitAt) admissions accepted.
  kServeShed,             ///< Admissions shed: predicted wait > deadline.
  kServeDeadlineMissed,   ///< Completions past their arrival-stamped deadline.
  kServeReplannedQueries,  ///< Served queries that took >= 1 adaptive replan.
  kServePlanFeedback,  ///< Corrected plans + pins written back to the cache.
  // costmodel (the online cost-model refresh loop; docs/cost_models.md)
  kCostmodelSamples,       ///< Served executions harvested into the buffer.
  kCostmodelTraceSkipped,  ///< Corrupt trace records skipped at ingestion.
  kCostmodelRefreshes,     ///< Refresh steps that trained a candidate.
  kCostmodelPromotions,    ///< Candidates promoted past the regression gate.
  kCostmodelRejections,    ///< Candidates refused by the regression gate.
  kCostmodelDriftAlarms,   ///< Rolling-Q-error drift alarms (trip breaker).
  // faultlib
  kFaultInjectedErrors,   ///< kError fault-point fires.
  kFaultInjectedLatency,  ///< kLatency fault-point fires.
  kFaultInjectedPoison,   ///< kPoison fault-point fires.
  kCounterCount           ///< Sentinel; not a counter.
};

/// Identity of every histogram. Same fixed-enum scheme as Counter.
enum class Histogram : int32_t {
  kExecutionLatencyNs = 0,  ///< Per-execution virtual latency.
  kPlanningLatencyNs,       ///< Per-query modeled planning time.
  kHistogramCount           ///< Sentinel; not a histogram.
};

/// Stable snake_case name of a counter (used as its JSON key).
const char* CounterName(Counter c);
/// Layer that emits the counter ("storage", "exec", "optimizer", "lqo",
/// "serve", "costmodel", "fault").
const char* CounterLayer(Counter c);
/// Stable snake_case name of a histogram.
const char* HistogramName(Histogram h);

/// Power-of-two-bucket histogram of non-negative int64 values: value v
/// lands in bucket bit_width(v). Fixed layout makes Observe O(1), merges
/// a plain element-wise add, and the whole thing trivially deterministic.
class LogHistogram {
 public:
  static constexpr int32_t kBuckets = 64;

  /// Records one value (negatives clamp to 0).
  void Observe(int64_t value);

  /// Element-wise accumulation of `other` into this.
  void MergeFrom(const LogHistogram& other);

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  /// Smallest/largest observed value (0 when empty).
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  /// Count in bucket `i` (values v with bit_width(v) == i).
  int64_t bucket(int32_t i) const { return buckets_[static_cast<size_t>(i)]; }

 private:
  std::array<int64_t, kBuckets> buckets_{};
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// A set of named counters and histograms. Plain mutable state with no
/// internal locking: one registry is only ever written by one thread at a
/// time (the parallel runners give each worker its own registry and merge —
/// counter addition commutes, so aggregates equal the serial run's).
///
/// Collection is opt-in per thread via MetricsScope. With no scope
/// installed, Current() is nullptr and every instrumentation site reduces
/// to a thread-local load and a branch — the "disabled" cost. Instrumented
/// code must never charge virtual time or mutate engine state for metrics,
/// so enabling collection cannot change any measured number.
class MetricsRegistry {
 public:
  void Add(Counter c, int64_t delta) {
    counters_[static_cast<size_t>(c)] += delta;
  }
  int64_t Get(Counter c) const { return counters_[static_cast<size_t>(c)]; }

  void Observe(Histogram h, int64_t value) {
    histograms_[static_cast<size_t>(h)].Observe(value);
  }
  const LogHistogram& histogram(Histogram h) const {
    return histograms_[static_cast<size_t>(h)];
  }

  /// Accumulates all counters and histograms of `other` into this.
  void MergeFrom(const MetricsRegistry& other);

  /// Zeroes every counter and histogram.
  void Reset();

  /// One JSON object: {"counters":{...},"histograms":{...}}. Histogram
  /// buckets are emitted sparsely as [bucket_index, count] pairs.
  std::string ToJson() const;

  /// Human-readable "layer name value" lines for non-zero counters plus
  /// count/sum/min/max per non-empty histogram.
  std::string ToText() const;

  /// The registry collecting on this thread, or nullptr when collection is
  /// disabled (the default).
  static MetricsRegistry* Current();

 private:
  std::array<int64_t, static_cast<size_t>(Counter::kCounterCount)> counters_{};
  std::array<LogHistogram, static_cast<size_t>(Histogram::kHistogramCount)>
      histograms_{};
};

namespace internal {
// constinit: the pointer needs no dynamic initialization, so the compiler
// reads it directly instead of through a TLS init wrapper (which UBSan
// reports as a null-pointer load/store on every access).
extern constinit thread_local MetricsRegistry* g_current_registry;
}  // namespace internal

inline MetricsRegistry* MetricsRegistry::Current() {
  return internal::g_current_registry;
}

/// RAII installer: makes `registry` the calling thread's collection target
/// for its lifetime, restoring the previous target (usually nullptr) on
/// destruction. Pass nullptr to disable collection within the scope.
class MetricsScope {
 public:
  explicit MetricsScope(MetricsRegistry* registry)
      : saved_(internal::g_current_registry) {
    internal::g_current_registry = registry;
  }
  ~MetricsScope() { internal::g_current_registry = saved_; }

  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  MetricsRegistry* saved_;
};

/// Increments `c` on the thread's current registry; no-op when disabled.
inline void Count(Counter c, int64_t delta = 1) {
  if (MetricsRegistry* r = MetricsRegistry::Current()) r->Add(c, delta);
}

/// Records `value` into `h` on the thread's current registry; no-op when
/// disabled.
inline void Observe(Histogram h, int64_t value) {
  if (MetricsRegistry* r = MetricsRegistry::Current()) r->Observe(h, value);
}

}  // namespace lqolab::obs

#endif  // LQOLAB_OBS_METRICS_H_
