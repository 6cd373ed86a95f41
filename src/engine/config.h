#ifndef LQOLAB_ENGINE_CONFIG_H_
#define LQOLAB_ENGINE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lqolab::engine {

/// Divisor applied when converting Table 2's memory settings (sized for the
/// real 3.6 GB IMDB) to capacities over the ~165 MB synthetic database, so
/// the presets keep their relative cache-pressure semantics (DESIGN.md §1).
inline constexpr int64_t kMemoryScale = 32;

/// Bytes corresponding to a Table 2 memory setting in MB, after scaling.
inline constexpr int64_t ScaledBytes(int64_t mb) {
  return mb * 1024 * 1024 / kMemoryScale;
}

/// DBMS configuration: the pglite equivalents of the PostgreSQL parameters
/// the paper compares in Table 2, plus the planner's enable_* switches used
/// by the ablations (Figs. 8-9) and by hint sets (Bao).
/// Cardinality-estimator variants for the estimator-design ablation bench
/// (DESIGN.md design decision 2): the full estimator, one without the
/// MCV-based equi-join selectivity, and the naive full-product formula.
enum class EstimatorMode {
  kFull,
  kNoMcvJoins,
  kNaiveProduct,
};

/// Cost-model backend used where the serving layer ranks whole candidate
/// plans (costmodel::CostGuidedOptimizer, bench/cost_model_bakeoff). The
/// DP planner always prices operators with the analytic model during join
/// search; this knob selects what scores the *finished* candidates. Part
/// of serve::PlanCacheKey — flipping the backend must not serve plans
/// ranked by the other model. See docs/cost_models.md.
enum class CostModelBackend {
  kAnalytic,
  kLearnedMlp,
};

struct DbConfig {
  std::string name = "default";

  // --- Join order ---------------------------------------------------------
  /// Genetic query optimization for large join counts.
  bool geqo = true;
  /// Number of FROM items at which the planner switches from DP to GEQO.
  int32_t geqo_threshold = 12;
  /// When 1, the join order follows the FROM-clause order (no reordering).
  int32_t join_collapse_limit = 8;
  /// Seed mixed into GEQO's per-query RNG stream (pglite's geqo_seed).
  /// Planner::Plan threads it into GeqoParams, so two databases with the
  /// same configuration — including CloneContextForWorker replicas and
  /// fuzzer replays — genetically plan the same query identically.
  uint64_t geqo_seed = 0;

  // --- Working memory (MB) ------------------------------------------------
  int64_t work_mem_mb = 4;
  int64_t shared_buffers_mb = 128;
  int64_t temp_buffers_mb = 8;
  int64_t effective_cache_size_mb = 4096;
  /// Physical RAM of the simulated machine; sizes the OS page-cache tier.
  int64_t ram_mb = 64 * 1024;

  // --- Parallelization ----------------------------------------------------
  int32_t max_parallel_workers = 8;
  int32_t max_parallel_workers_per_gather = 8;
  int32_t max_worker_processes = 2;

  // --- Scan types ---------------------------------------------------------
  bool enable_seqscan = true;
  bool enable_indexscan = true;
  bool enable_bitmapscan = true;
  bool enable_tidscan = true;

  // --- Join methods -------------------------------------------------------
  bool enable_nestloop = true;
  bool enable_hashjoin = true;
  bool enable_mergejoin = true;

  /// Allow bushy join trees in the DP planner (left-deep only when false).
  bool enable_bushy = true;

  /// Simulated-time budget per query execution; exceeding it aborts the
  /// query (the paper's experiments time out long-running queries).
  int64_t statement_timeout_ms = 3 * 60 * 1000;

  /// Estimator variant (ablation bench only; kFull elsewhere).
  EstimatorMode estimator_mode = EstimatorMode::kFull;

  /// Which cost model ranks candidate plans at the serving layer (see
  /// CostModelBackend above). kAnalytic everywhere except learned-cost
  /// serving experiments.
  CostModelBackend cost_model_backend = CostModelBackend::kAnalytic;

  /// Multiplier applied to equi-join selectivities, clamped to [.., 1].
  /// Lero generates its candidate plans by sweeping this knob (its
  /// "changing the internal cardinality estimations").
  double join_selectivity_scale = 1.0;

  // --- Mid-query adaptive re-optimization (docs/overload.md) -------------
  /// Cancel-and-replan when an observed node cardinality diverges from the
  /// planner's estimate by more than replan_qerror_threshold: the executor
  /// stops, the observed prefix truths are pinned into the estimator, the
  /// remainder is re-planned and re-executed. Off by default — results are
  /// byte-identical either way (locked by the replan differential suite);
  /// only latency and plan choice change. Not part of serve::PlanCacheKey —
  /// the *initial* plan is unaffected.
  bool adaptive_replan = false;
  /// Divergence trigger: max(actual/est, est/actual) >= threshold.
  double replan_qerror_threshold = 8.0;
  /// ... on subsets where max(actual, estimate) >= this many rows.
  int64_t replan_min_rows = 1024;
  /// Replan rounds per query before the current plan is run to completion.
  int32_t replan_max_per_query = 2;

  // --- Presets of Table 2 -------------------------------------------------
  /// PostgreSQL defaults.
  static DbConfig Default();
  /// The configuration recommended by Leis et al. for JOB.
  static DbConfig JobPaper();
  /// Bao's published configuration (15 GB machine).
  static DbConfig Bao();
  /// Balsa's / LEON's configuration (disables bitmap & tid scans).
  static DbConfig BalsaLeon();
  /// LOGER's configuration (256 GB machine, no parallelism).
  static DbConfig Loger();
  /// Lero's configuration (512 GB machine, no parallelism).
  static DbConfig Lero();
  /// The paper's framework configuration ("Our Framework" column).
  static DbConfig OurFramework();

  /// All presets, in Table 2 column order.
  static std::vector<DbConfig> Table2Presets();
};

}  // namespace lqolab::engine

#endif  // LQOLAB_ENGINE_CONFIG_H_
