#ifndef LQOLAB_ENGINE_DATABASE_H_
#define LQOLAB_ENGINE_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "datagen/imdb_generator.h"
#include "datagen/tpch_generator.h"
#include "engine/config.h"
#include "engine/shared_context.h"
#include "exec/db_context.h"
#include "exec/executor.h"
#include "exec/oracle.h"
#include "optimizer/planner.h"
#include "query/query.h"
#include "util/rng.h"
#include "util/virtual_clock.h"

namespace lqolab::engine {

/// Pages corresponding to a Table 2 memory setting in MB (after
/// kMemoryScale, see engine/config.h).
int64_t ScaledPages(int64_t mb);

/// Outcome of one planned-and-executed query.
struct QueryRun {
  /// Execution outcome classification (see exec::ExecutionResult::status):
  /// OK, kDeadlineExceeded (== timed_out), a cancel code, or an injected
  /// fault code. Success paths never change: default status is OK.
  util::Status status;
  util::VirtualNanos planning_ns = 0;
  util::VirtualNanos execution_ns = 0;
  bool timed_out = false;
  int64_t result_rows = 0;
  int64_t pages_accessed = 0;
  bool used_geqo = false;
  double estimated_cost = 0.0;
  /// True output rows per plan node (parallel to the plan's node array;
  /// -1 where the oracle count overflowed).
  std::vector<int64_t> node_rows;
  /// Full per-node statistics (rows, loops, self time, buffer tiers);
  /// same order as node_rows. Input to obs::ExplainAnalyzeText/Json.
  std::vector<exec::PlanNodeStats> node_stats;

  // --- Adaptive re-optimization (ExecutePlanAdaptive only) ---------------
  /// Cancel-and-replan rounds taken (0 = the given plan ran straight
  /// through; node_rows/node_stats always describe the final attempt).
  int32_t replans = 0;
  /// Prefix virtual time paid by abandoned attempts (inside execution_ns).
  util::VirtualNanos replan_wasted_ns = 0;
  /// Modeled planning time of the replan rounds (inside execution_ns, not
  /// planning_ns: it is spent mid-execution).
  util::VirtualNanos replan_planning_ns = 0;
  /// The plan the final attempt executed, set only when replans > 0 (the
  /// caller's plan is otherwise the executed plan). Shared because QueryRun
  /// is copied around freely.
  std::shared_ptr<const optimizer::PhysicalPlan> replanned_plan;
  /// Cardinality truths accumulated across replan rounds, set only when
  /// replans > 0. Feeding these back as `seed_pins` of a later
  /// ExecutePlanAdaptive call (the serve path's plan-cache feedback) lets
  /// repeat arrivals run the corrected plan without re-paying divergence
  /// detection and replan planning time.
  std::shared_ptr<const exec::CardinalityPins> replan_pins;

  util::VirtualNanos total_ns() const { return planning_ns + execution_ns; }
};

/// "pglite": the PostgreSQL-like engine facade. Owns the schema, data,
/// indexes, statistics, buffer cache, true-cardinality oracle, planner and
/// executor of one database instance, plus the per-query warm-up state that
/// models hot/cold-cache convergence (§7.3 / Fig. 4).
class Database {
 public:
  struct Options {
    datagen::ScaleProfile profile = datagen::ScaleProfile::Medium();
    uint64_t seed = 42;
    DbConfig config = DbConfig::OurFramework();
  };

  /// Generates the synthetic IMDB, builds indexes and runs ANALYZE.
  static std::unique_ptr<Database> CreateImdb(const Options& options);

  /// Generates the synthetic TPC-H-lite database (Options::profile is
  /// ignored; the star/snowflake row counts come from `profile`).
  static std::unique_ptr<Database> CreateTpch(
      const Options& options,
      const datagen::TpchScaleProfile& profile =
          datagen::TpchScaleProfile::Medium());

  /// Wraps pre-built tables under an explicit schema (e.g. the subsampled
  /// databases of Fig. 7).
  static std::unique_ptr<Database> FromTables(
      const Options& options, catalog::Schema schema,
      std::vector<std::shared_ptr<storage::Table>> tables);

  /// Wraps pre-built IMDB tables (schema defaults to BuildImdbSchema).
  static std::unique_ptr<Database> FromTables(
      const Options& options,
      std::vector<std::shared_ptr<storage::Table>> tables);

  /// Creates an isolated worker replica for parallel measurement. O(1) in
  /// database size: the replica adopts this instance's frozen
  /// engine::SharedContext (catalog, column segments, dictionaries,
  /// indexes, statistics) by shared_ptr — nothing is copied — and owns
  /// only fresh per-replica state: buffer pool, oracle, planner, executor,
  /// warm-up counters and the noise stream. Executions on the
  /// replica never observe or perturb the parent (or any sibling). Pair
  /// with BeginQueryReplay() for scheduling-independent results.
  std::unique_ptr<Database> CloneContextForWorker() const;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const catalog::Schema& schema() const { return *ctx_.schema; }
  const DbConfig& config() const { return ctx_.config; }
  /// Generation seed; worker replicas inherit it, and serve::QueryServer
  /// adopts it as the default replay seed.
  uint64_t seed() const { return seed_; }
  exec::DbContext& context() { return ctx_; }
  exec::Oracle& oracle() { return *oracle_; }
  exec::Executor& executor() { return *executor_; }
  const optimizer::Planner& planner() const { return *planner_; }

  /// Changes the configuration. Memory-sizing changes resize (and thus
  /// clear) the buffer cache; pure planner switches (enable_*, geqo) do
  /// not — Bao-style hint sets can be applied per query without losing
  /// cache state. Aborts on an invalid (e.g. non-positive memory) config;
  /// use TrySetConfig where allocation pressure must degrade gracefully.
  void SetConfig(const DbConfig& config);

  /// Like SetConfig, but returns kResourceExhausted instead of aborting
  /// when the memory sizing cannot be satisfied (non-positive or
  /// overflowing shared_buffers/ram). On error the configuration and the
  /// buffer cache are left unchanged.
  util::Status TrySetConfig(const DbConfig& config);

  /// Plans a query under the current configuration; returns the plan plus
  /// the modeled planning time.
  struct Planned {
    optimizer::PhysicalPlan plan;
    util::VirtualNanos planning_ns = 0;
    double estimated_cost = 0.0;
    bool used_geqo = false;
    int64_t planner_steps = 0;
  };
  Planned PlanQuery(const query::Query& q);

  /// A SQL statement parsed and bound against this database's schema, plus
  /// its normalized template identity (constants stripped) — the plan-cache
  /// key material of the serve SQL route.
  struct PreparedSql {
    query::Query query;
    /// sql::NormalizeSqlTemplate over the statement text.
    std::string normalized_template;
    /// sql::SqlTemplateFingerprint(normalized_template).
    uint64_t template_fingerprint = 0;
  };

  /// Parses and binds `sql` (see docs/sql.md for the accepted grammar).
  /// Returns kInvalidArgument with a "line:col:"-anchored diagnostic on
  /// malformed text; never aborts. `id` (optional) names the query the way
  /// workload files do ("13a", "c7b") and maps to template/variant through
  /// sql::AssignQueryId. Read-only: no planning or execution happens.
  util::Status PrepareSql(const std::string& sql, PreparedSql* out,
                          const std::string& id = "adhoc") const;

  /// Executes a caller-provided plan (the pg_hint_plan path used by LQOs).
  /// Applies warm-up state and execution noise; mutates cache state.
  /// `timeout_ns` overrides the configured statement timeout when > 0
  /// (Balsa-style training timeouts). A non-null `deadline` lets another
  /// thread cancel the execution mid-plan (serve shutdown); the cancel code
  /// surfaces in QueryRun::status.
  QueryRun ExecutePlan(const query::Query& q,
                       const optimizer::PhysicalPlan& plan,
                       util::VirtualNanos planning_ns = 0,
                       util::VirtualNanos timeout_ns = 0,
                       const exec::QueryDeadline* deadline = nullptr);

  /// ExecutePlan with mid-query adaptive re-optimization
  /// (docs/overload.md): when an observed node cardinality diverges from
  /// its estimate past DbConfig::replan_qerror_threshold, the attempt is
  /// abandoned (its prefix latency is kept), the observed truths are pinned
  /// into the estimator, the query is re-planned and re-executed, at most
  /// replan_max_per_query times. Results are byte-identical to ExecutePlan
  /// — only latency, plan choice and the replan_* QueryRun fields differ.
  /// Pass-through to ExecutePlan when DbConfig::adaptive_replan is false.
  /// A non-null `seed_pins` pre-loads cardinality truths from an earlier
  /// adaptive run (QueryRun::replan_pins) so the estimator starts corrected.
  QueryRun ExecutePlanAdaptive(const query::Query& q,
                               const optimizer::PhysicalPlan& plan,
                               util::VirtualNanos planning_ns = 0,
                               util::VirtualNanos timeout_ns = 0,
                               const exec::QueryDeadline* deadline = nullptr,
                               const exec::CardinalityPins* seed_pins = nullptr);

  /// Plans and executes.
  QueryRun Run(const query::Query& q);

  /// EXPLAIN ANALYZE: plans, executes, and renders the plan tree
  /// PostgreSQL-style — per node estimated vs actual rows, loops, virtual
  /// time and buffer-tier breakdown, then the planning/execution summary
  /// (see docs/observability.md for a worked example). Execution has the
  /// usual cache side effects.
  std::string ExplainAnalyze(const query::Query& q);

  /// Same measurement as ExplainAnalyze, rendered as one line of JSON
  /// (nested "children" arrays mirror the plan tree).
  std::string ExplainAnalyzeJson(const query::Query& q);

  /// Total database size in heap pages.
  int64_t TotalPages() const;

  /// Drops both cache tiers and all warm-up state (full cold start).
  void DropCaches();

  /// Resets this instance to the canonical replay state for `q`: cold
  /// caches and a noise stream derived from
  /// MixSeed(global_seed, QueryFingerprint(q), salt). After this call the
  /// next ExecutePlan(q, ...) result is a pure function of
  /// (storage, config, q, global_seed, salt) — independent of which worker
  /// runs it, in which order, at which parallelism (docs/parallelism.md).
  void BeginQueryReplay(uint64_t global_seed, const query::Query& q,
                        uint64_t salt = 0);

  /// Forces the warm-up stage of `q`: the next execution behaves as the
  /// (run_index+1)-th run since the last cache drop. Lets a replayed run
  /// sequence reproduce the serial warm-up trajectory regardless of how
  /// runs are batched across workers.
  void SetWarmupStage(const query::Query& q, int64_t run_index);

  /// Number of times a query signature has executed since the last cache
  /// drop (drives the warm-up multiplier).
  int64_t RunCount(const query::Query& q) const;

 private:
  explicit Database(const Options& options);

  /// Indexes, ANALYZE and the heap probe sequences over an assembled
  /// (schema, tables) SharedContext, then freezes it into ctx_ and
  /// initializes the per-replica runtime. The build-time half of every
  /// factory.
  void FinishBuild(std::shared_ptr<SharedContext> shared);
  void BuildIndexes(SharedContext& shared);
  static void Analyze(SharedContext& shared);
  static void BuildHeapProbePages(SharedContext& shared);
  void InitRuntime();
  double WarmupMultiplier(const query::Query& q);

  uint64_t seed_;
  exec::DbContext ctx_;
  std::unique_ptr<exec::Oracle> oracle_;
  std::unique_ptr<optimizer::Planner> planner_;
  std::unique_ptr<exec::Executor> executor_;
  std::unordered_map<uint64_t, int64_t> run_counts_;
  util::Rng noise_rng_;
};

}  // namespace lqolab::engine

#endif  // LQOLAB_ENGINE_DATABASE_H_
