#ifndef LQOLAB_SERVE_QUERY_SERVER_H_
#define LQOLAB_SERVE_QUERY_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/database.h"
#include "exec/deadline.h"
#include "lqo/interface.h"
#include "obs/metrics.h"
#include "query/query.h"
#include "serve/circuit_breaker.h"
#include "serve/hot_swap.h"
#include "serve/plan_cache.h"
#include "util/status.h"
#include "util/virtual_clock.h"

namespace lqolab::serve {

class VirtualDispatcher;

/// How the server turns an admitted query into an executable plan.
enum class RouteMode {
  kPglite,  ///< Native planner only (the paper's baseline that wins Fig. 5).
  kLqo,     ///< Published model plans; timeout falls back to the pglite plan.
  kShadow,  ///< Model plans (recorded), but the pglite plan executes.
};

/// Callback invoked by a worker after it successfully executes a plan
/// (status OK, not timed out): the hook the online cost-model refresh loop
/// (costmodel::OnlineRefresher) uses to harvest per-plan actuals without the
/// server knowing anything about cost models. Called on the worker thread,
/// inside its MetricsScope, holding no server locks except the worker's own
/// state mutex — implementations must not call back into the server's
/// submission API, but PublishModel/TripLqoBreaker are safe.
class ServedPlanObserver {
 public:
  virtual ~ServedPlanObserver() = default;
  /// `sequence` is the admission ticket id: unique, and assigned in
  /// admission order regardless of which worker executes the query.
  virtual void OnPlanExecuted(const query::Query& q,
                              const optimizer::PhysicalPlan& plan,
                              util::VirtualNanos execution_ns,
                              uint64_t sequence) = 0;
};

struct ServerOptions {
  /// Worker threads, each owning a Database::CloneContextForWorker replica;
  /// 0 means util::ThreadPool::DefaultParallelism().
  int32_t workers = 0;
  /// Bounded admission queue: closed-loop admission (Submit, SubmitSql)
  /// blocks when full (backpressure), open-loop admission (SubmitAt)
  /// refuses.
  int32_t queue_capacity = 128;
  RouteMode route = RouteMode::kPglite;
  /// Plan-cache geometry; capacity_per_shard 0 disables caching.
  PlanCacheOptions cache;
  /// Deadline for executing an LQO-routed plan (the paper's timeout
  /// protocol); on expiry the query re-executes on the pglite plan and the
  /// fallback is recorded. 0 uses the configured statement timeout.
  util::VirtualNanos lqo_deadline_ns = 0;
  /// Replay seed; 0 adopts the parent database's generation seed. Every
  /// execution starts from the canonical replay state
  /// (Database::BeginQueryReplay with a salt fixed at admission), so
  /// per-query results are identical for any worker count.
  uint64_t seed = 0;
  /// Bounded retry of transient worker faults: a query whose attempt ends
  /// with a retryable status (kUnavailable / kResourceExhausted) re-runs up
  /// to this many extra times. Deadline expiry, timeouts and cancellation
  /// are never retried — that work already consumed its budget. All queries
  /// here are read-only, hence idempotent; a mutating route must not opt in.
  /// Retry k (1-based) first waits a virtual backoff of 100 us << (k-1),
  /// charged to the client-visible latency (ServedQuery::backoff_ns).
  int32_t max_retries = 2;
  /// Circuit breaker guarding the LQO route (consulted in kLqo mode only).
  CircuitBreakerOptions breaker;
  /// Optional hook observing every successful execution (see
  /// ServedPlanObserver). Must outlive the server; nullptr disables.
  ServedPlanObserver* observer = nullptr;

  // --- Open-loop admission (SubmitAt; docs/overload.md) ------------------
  /// Virtual service capacity k the open-loop dispatcher and the shedding
  /// predictor model; 0 adopts the real worker count. Fixing it decouples
  /// recorded virtual metrics (queue waits, deadline misses) from the
  /// machine's thread count.
  int32_t virtual_workers = 0;
  /// Deadline-aware load shedding: refuse an open-loop admission when its
  /// predicted virtual start (earliest estimated-free worker) plus its
  /// estimated service time lands past arrival + deadline budget. A shed
  /// query resolves immediately (kUnavailable, ServedQuery::shed) and
  /// consumes no capacity — the overload-control policy that keeps goodput
  /// from collapsing past saturation.
  bool shed_on_predicted_miss = false;
};

/// Admission metadata of one open-loop arrival (QueryServer::SubmitAt).
struct OpenLoopArrival {
  /// Virtual arrival timestamp; deadlines are stamped here, at arrival,
  /// so queue wait counts against the SLO.
  util::VirtualNanos arrival_vt = 0;
  /// Deadline budget from arrival; 0 = no deadline.
  util::VirtualNanos deadline_budget_ns = 0;
  /// Caller-estimated virtual service time, the shedding predictor's
  /// input (e.g. measured in a warm-up pass; see loadgen::OpenLoopRunner).
  util::VirtualNanos estimated_service_ns = 0;
  /// Tenant index for per-tenant SLO accounting (free-form, >= 0).
  int32_t tenant = 0;
};

/// Outcome of one served query, delivered through the Submit future.
struct ServedQuery {
  std::string query_id;
  int64_t ticket = 0;
  RouteMode route = RouteMode::kPglite;
  /// Final outcome: OK on success, kShutdown when the server stopped before
  /// (or while) running the query, kDeadlineExceeded when `timed_out`, or
  /// the fault code when every retry was exhausted.
  util::Status status;
  /// Transient-fault retries performed (0 on the common path).
  int32_t retries = 0;
  /// Virtual backoff charged by those retries; part of latency_ns().
  util::VirtualNanos backoff_ns = 0;
  /// The circuit breaker short-circuited the LQO route to pglite.
  bool breaker_short_circuit = false;
  /// Model inference failed (injected fault); served from the native plan.
  bool infer_fault = false;
  bool cache_hit = false;
  /// LQO plan hit its deadline; the pglite plan produced the answer.
  bool fell_back = false;
  /// The final answer itself timed out (statement timeout on the winning
  /// plan); result_rows is 0.
  bool timed_out = false;
  int64_t result_rows = 0;
  util::VirtualNanos inference_ns = 0;
  util::VirtualNanos planning_ns = 0;
  /// Execution time of the winning plan.
  util::VirtualNanos execution_ns = 0;
  /// Virtual time burned on a timed-out LQO attempt before falling back
  /// (equals the deadline when fell_back).
  util::VirtualNanos wasted_ns = 0;
  /// One-line rendering of the executed plan.
  std::string plan;
  /// In shadow mode: the plan the model proposed (not executed).
  std::string shadow_plan;

  // --- Adaptive re-optimization (DbConfig::adaptive_replan) --------------
  /// Mid-query cancel-and-replan rounds the winning execution took; its
  /// wasted prefix time is inside execution_ns (QueryRun::replans).
  int32_t replans = 0;
  util::VirtualNanos replan_wasted_ns = 0;

  // --- Open-loop admission (SubmitAt) ------------------------------------
  int32_t tenant = 0;
  util::VirtualNanos arrival_vt = 0;
  /// Virtual time spent queued before service started (dispatcher-placed;
  /// 0 on the closed-loop Submit path).
  util::VirtualNanos queue_wait_ns = 0;
  /// Virtual completion timestamp: arrival + queue wait + service.
  util::VirtualNanos completion_vt = 0;
  /// Completion landed past the deadline stamped at arrival.
  bool deadline_missed = false;
  /// Refused at admission: predicted queue wait exceeded the remaining
  /// deadline budget (status kUnavailable).
  bool shed = false;
  /// Refused at admission: queue full (status kResourceExhausted; a
  /// closed-loop admission blocks instead).
  bool rejected = false;

  /// Client-visible latency in virtual time.
  util::VirtualNanos latency_ns() const {
    return inference_ns + planning_ns + wasted_ns + backoff_ns + execution_ns;
  }

  /// Open-loop client-visible latency: queue wait + service.
  util::VirtualNanos total_latency_ns() const {
    return queue_wait_ns + latency_ns();
  }
};

/// A long-lived, concurrent query-serving front end over one database: a
/// bounded admission queue fans queries out to a pool of worker threads,
/// each executing on an isolated engine replica
/// (Database::CloneContextForWorker). Plans come from a sharded LRU plan
/// cache backed by the pluggable router (pglite / published LQO / shadow);
/// LQO-routed plans run under a per-query deadline with the paper's
/// timeout-fallback protocol. Models are published through a HotSwapSlot,
/// so training can continue while the server drains traffic.
/// Full architecture notes: docs/serving.md.
class QueryServer {
 public:
  /// Spawns the worker pool. `db` must outlive the server; the server never
  /// executes on it (replicas only), but LQO inference plans through a
  /// dedicated replica as well, so `db` stays untouched throughout.
  QueryServer(engine::Database* db, const ServerOptions& options);

  /// Shuts down: drains the queue, joins the workers.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Admits a query, blocking while the queue is full (backpressure). The
  /// future resolves when a worker finishes the query. Racing with
  /// Shutdown() is safe: once the server is stopping, the returned future
  /// resolves immediately with status kShutdown.
  std::future<ServedQuery> Submit(query::Query q);

  /// Admits raw SQL text. The statement is parsed and bound at admission on
  /// the calling thread (engine::Database::PrepareSql against the parent's
  /// schema); malformed text resolves immediately with the binder's
  /// kInvalidArgument diagnostic and counts kServeSqlRejected — nothing is
  /// enqueued. Well-formed text enqueues like Submit (blocking on a full
  /// queue), except the plan cache is keyed on the statement's normalized
  /// template (PlanCacheKeyForTemplate): resubmitting the same template
  /// with different literals hits the cached plan. `id` names the query in
  /// results/metrics the way workload files do ("c7b").
  std::future<ServedQuery> SubmitSql(const std::string& sql,
                                     const std::string& id = "adhoc");

  /// Open-loop admission: never blocks the arrival process. Where Submit
  /// models a closed-loop client (backpressure pauses the workload), an
  /// open-loop arrival happens at a virtual timestamp whether or not the
  /// server has capacity — so a full queue *rejects* (kResourceExhausted,
  /// ServedQuery::rejected) instead of blocking, and with
  /// ServerOptions::shed_on_predicted_miss a doomed admission is *shed*
  /// (kUnavailable, ServedQuery::shed) before consuming capacity. Deadlines
  /// are stamped at arrival: queue wait counts against the budget. Virtual
  /// placement (queue wait, completion time, deadline verdict) comes from
  /// the deterministic VirtualDispatcher (serve/dispatcher.h), so results
  /// are byte-identical for any worker count. The future resolves in
  /// admission order.
  std::future<ServedQuery> SubmitAt(query::Query q,
                                    const OpenLoopArrival& arrival);

  /// Publishes a trained model to the router (atomic hot swap; serving
  /// waits at most for one pointer swap). In-flight queries finish on the
  /// snapshot they acquired; the version change invalidates every
  /// LQO-routed plan-cache entry. Returns the new model version.
  uint64_t PublishModel(std::shared_ptr<lqo::LearnedOptimizer> model);

  /// Blocks until the queue is empty and no query is in flight.
  void Drain();

  /// Stops admissions, drains the queue for at most two wall-clock seconds,
  /// resolves any still-queued query with status kShutdown, cancels
  /// in-flight executions mid-plan through their QueryDeadline, and joins
  /// the worker pool. Every future ever handed out
  /// is guaranteed to resolve. Idempotent; called by the destructor.
  void Shutdown();

  /// Merged engine/serve counters of all workers (callable while serving;
  /// the snapshot is consistent per worker, workers are merged in index
  /// order).
  obs::MetricsRegistry SnapshotMetrics() const;

  int32_t workers() const { return static_cast<int32_t>(workers_.size()); }
  const PlanCache& plan_cache() const { return cache_; }
  /// The breaker guarding the LQO route (observable for tests/benches).
  const CircuitBreaker& breaker() const { return breaker_; }
  /// Force-opens the LQO breaker (CircuitBreaker::Trip): the escape hatch
  /// for out-of-band health signals such as cost-model drift alarms.
  void TripLqoBreaker() { breaker_.Trip(); }
  uint64_t model_version() const { return model_.version(); }
  uint64_t seed() const { return seed_; }
  const ServerOptions& options() const { return options_; }

 private:
  /// One admission, whichever entry point it came through.
  struct Admission {
    query::Query query;
    /// Normalized-template fingerprint of a SubmitSql admission; 0 on the
    /// struct route (plan cache keys per query instead).
    uint64_t sql_template_fp = 0;
    /// Set for an open-loop (SubmitAt) arrival: it is refused instead of
    /// blocking on a full queue, may be shed, and completes through the
    /// VirtualDispatcher. Unset for closed-loop Submit/SubmitSql.
    std::optional<OpenLoopArrival> arrival;
  };

  struct Ticket {
    Admission admission;
    int64_t id = 0;
    /// 0-based occurrence of this query fingerprint among admissions;
    /// fixes the replay salt at admission so executions are independent of
    /// which worker runs them, in which order.
    uint64_t occurrence = 0;
    /// Dispatcher sequence number of an open-loop admission.
    uint64_t open_seq = 0;
    std::promise<ServedQuery> promise;
  };

  struct WorkerState {
    /// Held for the duration of each ticket (uncontended) and briefly by
    /// SnapshotMetrics.
    mutable std::mutex mu;
    std::unique_ptr<engine::Database> db;
    obs::MetricsRegistry metrics;
    /// Cancellation token of the ticket this worker is executing, or null
    /// when idle. Guarded by queue_mu_; Shutdown cancels through it.
    exec::QueryDeadline* active_deadline = nullptr;
  };

  /// A plan pulled from the cache (`cache_hit`) or produced cold.
  struct Acquired {
    std::shared_ptr<const CachedPlan> plan;
    bool cache_hit = false;
    /// Inference failed with an injected fault (plan is null).
    bool infer_fault = false;
    /// Injected inference latency spike for this acquisition (not cached).
    util::VirtualNanos infer_latency_ns = 0;
    /// Model version of the snapshot that produced (or would have produced)
    /// this plan; the era any same-query fallback plan must be keyed under.
    uint64_t model_version = 0;
    /// Plan-cache key this acquisition resolved through (0 when the plan
    /// never touched the cache); the slot plan feedback writes back to.
    uint64_t key = 0;
  };

  void WorkerLoop(WorkerState* state);
  ServedQuery Process(engine::Database* replica, const Ticket& ticket,
                      const exec::QueryDeadline* deadline);

  /// The one admission path under Submit, SubmitSql and SubmitAt: takes
  /// queue_mu_, refuses when stopping, blocks (closed loop) or refuses
  /// (open loop) on a full queue, sheds predicted deadline misses, numbers
  /// the ticket and its replay occurrence, and enqueues it. Every admission
  /// counter is recorded here or in Refusal, on the control registry.
  std::future<ServedQuery> Admit(Admission admission);

  /// The result of a query refused at admission (`ticket_id` -1) or dropped
  /// at shutdown; counts `counter` on the control registry and sets
  /// ServedQuery::rejected / shed when it is kServeRejected / kServeShed.
  ServedQuery Refusal(const std::string& query_id,
                      const std::optional<OpenLoopArrival>& arrival,
                      int64_t ticket_id, obs::Counter counter,
                      util::Status status);

  /// Adds one to `counter` on the control registry.
  void CountControl(obs::Counter counter);

  /// Resolves a dequeued ticket: an open-loop ticket through the
  /// dispatcher (its virtual placement), any other directly.
  void Complete(Ticket* ticket, ServedQuery served);

  /// Returns the native plan for `q`, through the cache (planning on the
  /// worker's own replica on a miss — identical plan on every worker).
  /// `template_fp` != 0 keys the lookup on the normalized SQL template.
  /// `model_version` is the era the entry is keyed under: 0 on the pglite
  /// and shadow routes (native plans never change with the model there),
  /// the acquiring snapshot's version on the kLqo fallback path — a model
  /// swap must invalidate fallback entries exactly like LQO entries.
  Acquired NativePlan(engine::Database* replica, const query::Query& q,
                      uint64_t template_fp, uint64_t model_version);
  /// Returns the published model's plan for `q` (inference serialized on
  /// the dedicated planning replica), through the cache; `plan` is null
  /// when no model is published. `template_fp` as in NativePlan.
  Acquired LqoPlan(const query::Query& q, uint64_t template_fp);

  engine::Database* parent_;
  ServerOptions options_;
  uint64_t seed_;
  PlanCache cache_;
  HotSwapSlot<lqo::LearnedOptimizer> model_;
  CircuitBreaker breaker_;

  /// Counters emitted by non-worker threads (admission); merged into
  /// SnapshotMetrics alongside the per-worker registries.
  mutable std::mutex control_mu_;
  obs::MetricsRegistry control_metrics_;

  /// Serializes model inference; models mutate internal state when
  /// planning, and the original systems run one model-server process.
  std::mutex inference_mu_;
  std::unique_ptr<engine::Database> planning_db_;  // guarded by inference_mu_

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;  // workers: ticket available / stopping
  std::condition_variable space_cv_;  // submitters: queue has room
  std::condition_variable idle_cv_;   // Drain: queue empty and none in flight
  std::deque<Ticket> queue_;
  std::unordered_map<uint64_t, uint64_t> occurrences_;
  int64_t next_ticket_ = 0;
  int64_t in_flight_ = 0;
  bool stopping_ = false;

  // Open-loop admission state (guarded by queue_mu_): dense sequence
  // numbers for the dispatcher, and the shedding predictor's min-heap of
  // *estimated* virtual worker free-times. The predictor deliberately
  // mirrors the dispatcher's G/G/k placement but runs on caller-provided
  // estimates at admission time, so the shed decision is deterministic and
  // requires no completed work.
  uint64_t next_open_seq_ = 0;
  std::vector<util::VirtualNanos> admit_heap_;
  std::unique_ptr<VirtualDispatcher> dispatcher_;

  std::vector<std::unique_ptr<WorkerState>> states_;
  std::vector<std::thread> workers_;
};

}  // namespace lqolab::serve

#endif  // LQOLAB_SERVE_QUERY_SERVER_H_
