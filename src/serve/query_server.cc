#include "serve/query_server.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "exec/oracle.h"
#include "faultlib/faultlib.h"
#include "serve/dispatcher.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace lqolab::serve {

using engine::Database;
using query::Query;
using util::VirtualNanos;

namespace {

/// Salt bit distinguishing a fallback re-execution's replay stream from the
/// primary attempt's (both must be pure functions of the admission, not of
/// scheduling).
constexpr uint64_t kFallbackSaltBit = 1ull << 63;

/// Mixed into the era of a native plan cached on the kLqo fallback path, so
/// a fallback entry at model version v and an LQO entry at version v for the
/// same query/template occupy distinct cache slots.
constexpr uint64_t kNativeDomainSalt = 0x9a71fe0fba11bac6ULL;

/// Degrades a plan to the canonical pathological shape — every scan
/// sequential, every join a nested loop (the shape test_serve's
/// SlowPlanOptimizer produces). Models a "lqo.infer" poison fault: the
/// model answered, but with a corrupted prediction.
void DegradePlan(optimizer::PhysicalPlan* plan) {
  for (optimizer::PlanNode& node : plan->nodes) {
    if (node.type == optimizer::PlanNode::Type::kScan) {
      node.scan_type = optimizer::ScanType::kSeq;
      node.index_column = catalog::kInvalidColumn;
    } else {
      node.algo = optimizer::JoinAlgo::kNestLoop;
    }
  }
}

/// Virtual backoff before transient-fault retry k (1-based): this << (k-1),
/// charged to the client-visible latency (ServedQuery::backoff_ns).
constexpr VirtualNanos kRetryBackoffNs = 100'000;

/// Bounded wall-clock drain at Shutdown: queued queries still unclaimed
/// after this long resolve as explicit kShutdown results instead of
/// executing.
constexpr std::chrono::milliseconds kShutdownDrain{2'000};

util::Status ShutdownStatus() {
  return util::Status(util::StatusCode::kShutdown,
                      "server shut down before execution");
}

std::future<ServedQuery> Resolved(ServedQuery served) {
  std::promise<ServedQuery> promise;
  promise.set_value(std::move(served));
  return promise.get_future();
}

}  // namespace

QueryServer::QueryServer(Database* db, const ServerOptions& options)
    : parent_(db),
      options_(options),
      seed_(options.seed != 0 ? options.seed : db->seed()),
      cache_(options.cache),
      breaker_(options.breaker) {
  LQOLAB_CHECK(db != nullptr);
  LQOLAB_CHECK_GT(options_.queue_capacity, 0);
  planning_db_ = db->CloneContextForWorker();
  const int32_t workers = options_.workers > 0
                              ? options_.workers
                              : util::ThreadPool::DefaultParallelism();
  states_.reserve(static_cast<size_t>(workers));
  workers_.reserve(static_cast<size_t>(workers));
  const int32_t virtual_workers = options_.virtual_workers > 0
                                      ? options_.virtual_workers
                                      : workers;
  dispatcher_ = std::make_unique<VirtualDispatcher>(virtual_workers);
  admit_heap_.assign(static_cast<size_t>(virtual_workers), 0);
  for (int32_t w = 0; w < workers; ++w) {
    auto state = std::make_unique<WorkerState>();
    state->db = db->CloneContextForWorker();
    states_.push_back(std::move(state));
  }
  for (int32_t w = 0; w < workers; ++w) {
    workers_.emplace_back(&QueryServer::WorkerLoop, this,
                          states_[static_cast<size_t>(w)].get());
  }
}

QueryServer::~QueryServer() { Shutdown(); }

std::future<ServedQuery> QueryServer::Submit(Query q) {
  return Admit({std::move(q), /*sql_template_fp=*/0, std::nullopt});
}

std::future<ServedQuery> QueryServer::SubmitSql(const std::string& sql,
                                                const std::string& id) {
  engine::Database::PreparedSql prepared;
  const util::Status bound = parent_->PrepareSql(sql, &prepared, id);
  if (!bound.ok()) {
    // Malformed text is the client's failure, resolved at admission; no
    // ticket, no retry, no engine work.
    return Resolved(Refusal(id, std::nullopt, /*ticket_id=*/-1,
                            obs::Counter::kServeSqlRejected, bound));
  }
  return Admit({std::move(prepared.query), prepared.template_fingerprint,
                std::nullopt});
}

std::future<ServedQuery> QueryServer::SubmitAt(Query q,
                                               const OpenLoopArrival& arrival) {
  return Admit({std::move(q), /*sql_template_fp=*/0, arrival});
}

std::future<ServedQuery> QueryServer::Admit(Admission admission) {
  const std::optional<OpenLoopArrival>& arrival = admission.arrival;
  // Read before `admission` moves into its ticket.
  const bool open_loop = arrival.has_value();
  const bool sql = admission.sql_template_fp != 0;
  std::unique_lock<std::mutex> lock(queue_mu_);
  // Refusals resolve outside queue_mu_.
  const auto refuse = [&](obs::Counter counter, util::Status status) {
    lock.unlock();
    return Resolved(Refusal(admission.query.id, arrival, /*ticket_id=*/-1,
                            counter, std::move(status)));
  };
  const auto queue_full = [&] {
    return static_cast<int32_t>(queue_.size()) >= options_.queue_capacity;
  };
  // A closed-loop client blocks on a full queue (backpressure pauses the
  // workload); an open-loop arrival happens whether or not there is room.
  if (!open_loop) {
    space_cv_.wait(lock, [&] { return stopping_ || !queue_full(); });
  }
  if (stopping_) {
    // Racing with Shutdown: the query will never run. Resolve it as an
    // explicit kShutdown result instead of aborting the process.
    return refuse(obs::Counter::kServeShutdownDropped, ShutdownStatus());
  }
  if (queue_full()) {
    // Only open-loop arrivals get here: a full queue is a refusal the SLO
    // accountant sees, not backpressure the arrival process absorbs.
    return refuse(obs::Counter::kServeRejected,
                  util::Status(util::StatusCode::kResourceExhausted,
                               "admission queue full"));
  }
  Ticket ticket;
  if (open_loop) {
    if (options_.shed_on_predicted_miss && arrival->deadline_budget_ns > 0) {
      // Deadline-aware shedding: predict this arrival's completion on the
      // estimate heap (same G/G/k placement the dispatcher performs, on
      // caller estimates instead of completed truths) and refuse it when
      // it cannot make its deadline — better to fail one query instantly
      // than to let it queue, miss anyway, and drag every later query
      // further past its own budget.
      const VirtualNanos predicted_start =
          std::max(arrival->arrival_vt, admit_heap_.front());
      if (predicted_start + arrival->estimated_service_ns >
          arrival->arrival_vt + arrival->deadline_budget_ns) {
        return refuse(obs::Counter::kServeShed,
                      util::Status(util::StatusCode::kUnavailable,
                                   "shed: predicted deadline miss"));
      }
    }
    // Admit: advance the estimate heap by this arrival's service estimate
    // (refused arrivals above consumed no capacity, so they left it alone).
    std::pop_heap(admit_heap_.begin(), admit_heap_.end(),
                  std::greater<VirtualNanos>());
    admit_heap_.back() = std::max(arrival->arrival_vt, admit_heap_.back()) +
                         arrival->estimated_service_ns;
    std::push_heap(admit_heap_.begin(), admit_heap_.end(),
                   std::greater<VirtualNanos>());
    ticket.open_seq = next_open_seq_++;
  }
  ticket.id = next_ticket_++;
  ticket.occurrence = occurrences_[exec::QueryFingerprint(admission.query)]++;
  ticket.admission = std::move(admission);
  std::future<ServedQuery> result = ticket.promise.get_future();
  queue_.push_back(std::move(ticket));
  lock.unlock();
  if (open_loop) CountControl(obs::Counter::kServeOpenLoopQueries);
  if (sql) CountControl(obs::Counter::kServeSqlQueries);
  queue_cv_.notify_one();
  return result;
}

uint64_t QueryServer::PublishModel(
    std::shared_ptr<lqo::LearnedOptimizer> model) {
  return model_.Publish(std::move(model));
}

void QueryServer::Drain() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void QueryServer::CountControl(obs::Counter counter) {
  // Admission and shutdown run on client threads with no MetricsScope;
  // record on the server's own control registry instead.
  std::lock_guard<std::mutex> lock(control_mu_);
  control_metrics_.Add(counter, 1);
}

ServedQuery QueryServer::Refusal(const std::string& query_id,
                                 const std::optional<OpenLoopArrival>& arrival,
                                 int64_t ticket_id, obs::Counter counter,
                                 util::Status status) {
  ServedQuery served;
  served.query_id = query_id;
  served.ticket = ticket_id;
  served.route = options_.route;
  served.status = std::move(status);
  served.rejected = counter == obs::Counter::kServeRejected;
  served.shed = counter == obs::Counter::kServeShed;
  if (arrival) {
    served.tenant = arrival->tenant;
    served.arrival_vt = arrival->arrival_vt;
    served.completion_vt = arrival->arrival_vt;
  }
  CountControl(counter);
  return served;
}

void QueryServer::Complete(Ticket* ticket, ServedQuery served) {
  const std::optional<OpenLoopArrival>& arrival = ticket->admission.arrival;
  if (!arrival) {
    ticket->promise.set_value(std::move(served));
    return;
  }
  // Open-loop: the dispatcher computes the virtual placement (queue wait,
  // completion, deadline verdict) in admission order and resolves the
  // promise — possibly buffering behind a slower earlier admission. A
  // ticket dropped at shutdown reports zero service: sequence order must
  // keep advancing or every admission behind it would buffer forever.
  served.tenant = arrival->tenant;
  served.arrival_vt = arrival->arrival_vt;
  OpenLoopCompletion completion;
  completion.arrival_vt = arrival->arrival_vt;
  completion.deadline_vt =
      arrival->deadline_budget_ns > 0
          ? arrival->arrival_vt + arrival->deadline_budget_ns
          : 0;
  completion.service_ns = served.latency_ns();
  completion.served = std::move(served);
  completion.promise = std::move(ticket->promise);
  dispatcher_->Complete(ticket->open_seq, std::move(completion));
}

void QueryServer::Shutdown() {
  std::vector<Ticket> dropped;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    stopping_ = true;
    queue_cv_.notify_all();
    space_cv_.notify_all();
    // Bounded drain: give the workers a window to absorb the backlog.
    idle_cv_.wait_for(lock, kShutdownDrain,
                      [&] { return queue_.empty() && in_flight_ == 0; });
    // Whatever is still queued will never run; claim it for explicit
    // kShutdown resolution below.
    while (!queue_.empty()) {
      dropped.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    // Cancel in-flight executions mid-plan; each worker's executor observes
    // the deadline at its next node boundary and returns kShutdown. The
    // deadline object lives on the worker's stack, but the pointer is only
    // registered while valid and we hold queue_mu_, so the Cancel is safe.
    for (auto& state : states_) {
      if (state->active_deadline != nullptr) {
        state->active_deadline->Cancel(util::StatusCode::kShutdown);
      }
    }
  }
  queue_cv_.notify_all();
  for (Ticket& ticket : dropped) {
    Complete(&ticket, Refusal(ticket.admission.query.id, std::nullopt,
                              ticket.id, obs::Counter::kServeShutdownDropped,
                              ShutdownStatus()));
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

obs::MetricsRegistry QueryServer::SnapshotMetrics() const {
  obs::MetricsRegistry merged;
  for (const auto& state : states_) {
    std::lock_guard<std::mutex> lock(state->mu);
    merged.MergeFrom(state->metrics);
  }
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    merged.MergeFrom(control_metrics_);
  }
  if (dispatcher_ != nullptr) {
    merged.Add(obs::Counter::kServeDeadlineMissed,
               dispatcher_->deadline_missed());
  }
  return merged;
}

void QueryServer::WorkerLoop(WorkerState* state) {
  for (;;) {
    Ticket ticket;
    exec::QueryDeadline deadline;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      ticket = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      state->active_deadline = &deadline;  // Shutdown cancels through this.
    }
    space_cv_.notify_one();
    ServedQuery served;
    {
      // The state lock is uncontended in steady state (one worker, one
      // state); SnapshotMetrics takes it briefly for a consistent copy.
      std::lock_guard<std::mutex> lock(state->mu);
      obs::MetricsScope scope(&state->metrics);
      int32_t retries = 0;
      VirtualNanos backoff = 0;
      for (;;) {
        served = Process(state->db.get(), ticket, &deadline);
        // Retry only transient faults, and only within the bounded budget.
        // Timeouts, deadline expiry and cancellation are never retried:
        // that work already consumed its budget (or its caller is gone).
        if (!served.status.retryable() || retries >= options_.max_retries ||
            deadline.cancelled()) {
          break;
        }
        backoff += kRetryBackoffNs << retries;
        ++retries;
        obs::Count(obs::Counter::kServeRetries);
      }
      served.retries = retries;
      served.backoff_ns = backoff;
      obs::Count(obs::Counter::kServeQueries);
    }
    Complete(&ticket, std::move(served));
    // Free the ticket's materialized intermediates once it is answered.
    // Later tickets reuse the replica's filtered bases, build tables and
    // cardinalities; kept, the intermediates would pile up to the oracle's
    // budget and make the server's memory depend on which worker ran which
    // query.
    state->db->oracle().ReleaseIntermediates();
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      state->active_deadline = nullptr;
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

QueryServer::Acquired QueryServer::NativePlan(Database* replica,
                                              const Query& q,
                                              uint64_t template_fp,
                                              uint64_t model_version) {
  // Era 0 — the pglite/shadow routes — keys the entry model-independently;
  // a nonzero era (kLqo fallback) ties it to the model snapshot whose
  // timeout produced it, so PublishModel invalidates fallback plans exactly
  // like the LQO plans they shadow.
  const uint64_t era =
      model_version == 0 ? 0
                         : util::MixSeed(model_version, kNativeDomainSalt);
  const uint64_t key =
      template_fp != 0
          ? PlanCacheKeyForTemplate(template_fp, replica->config(), era)
          : PlanCacheKey(q, replica->config(), era);
  if (std::shared_ptr<const CachedPlan> hit = cache_.Lookup(key)) {
    Acquired out;
    out.plan = std::move(hit);
    out.cache_hit = true;
    out.model_version = model_version;
    out.key = key;
    return out;
  }
  const Database::Planned planned = replica->PlanQuery(q);
  CachedPlan cached;
  cached.plan = planned.plan;
  cached.planning_ns = planned.planning_ns;
  cached.estimated_cost = planned.estimated_cost;
  auto snapshot = std::make_shared<const CachedPlan>(std::move(cached));
  cache_.Insert(key, snapshot);
  Acquired out;
  out.plan = std::move(snapshot);
  out.model_version = model_version;
  out.key = key;
  return out;
}

QueryServer::Acquired QueryServer::LqoPlan(const Query& q,
                                           uint64_t template_fp) {
  const HotSwapSlot<lqo::LearnedOptimizer>::Snapshot snapshot =
      model_.Acquire();
  if (snapshot.value == nullptr) return {};
  const uint64_t key =
      template_fp != 0
          ? PlanCacheKeyForTemplate(template_fp, parent_->config(),
                                    snapshot.version)
          : PlanCacheKey(q, parent_->config(), snapshot.version);
  if (std::shared_ptr<const CachedPlan> hit = cache_.Lookup(key)) {
    Acquired out;
    out.plan = std::move(hit);
    out.cache_hit = true;
    out.model_version = snapshot.version;
    out.key = key;
    return out;
  }
  // Model-serving fault site: inference errors, latency spikes, and
  // poisoned predictions (all on the cache-miss path — a cache hit never
  // touches the model).
  const faultlib::FaultAction fault = LQOLAB_FAULT_POINT("lqo.infer");
  if (fault.is_error()) {
    Acquired failed;
    failed.infer_fault = true;
    failed.model_version = snapshot.version;
    return failed;
  }
  lqo::Prediction prediction;
  {
    // One inference at a time: models mutate internal state while planning
    // and may re-plan through the planning replica's configuration.
    std::lock_guard<std::mutex> lock(inference_mu_);
    prediction = snapshot.value->Plan(q, planning_db_.get());
  }
  obs::Count(obs::Counter::kServeLqoPlanned);
  CachedPlan cached;
  cached.plan = std::move(prediction.plan);
  cached.inference_ns = prediction.inference_ns;
  cached.planning_ns = lqo::ChargedPlanningNs(prediction, q);
  auto shared = std::make_shared<const CachedPlan>(std::move(cached));
  cache_.Insert(key, shared);
  Acquired out;
  out.plan = std::move(shared);
  out.model_version = snapshot.version;
  out.key = key;
  if (fault.is_latency()) out.infer_latency_ns = fault.latency_ns;
  if (fault.is_poison()) {
    // Corrupted prediction: this acquisition executes a degraded copy. The
    // cache keeps the clean plan, so the poison stays confined to the hit
    // that drew it instead of persisting beyond its fault schedule.
    CachedPlan poisoned = *out.plan;
    DegradePlan(&poisoned.plan);
    out.plan = std::make_shared<const CachedPlan>(std::move(poisoned));
  }
  return out;
}

ServedQuery QueryServer::Process(Database* replica, const Ticket& ticket,
                                 const exec::QueryDeadline* deadline) {
  const Query& q = ticket.admission.query;
  const uint64_t template_fp = ticket.admission.sql_template_fp;
  ServedQuery served;
  served.query_id = q.id;
  served.ticket = ticket.id;
  served.route = options_.route;

  // Worker-replica fault site: the whole attempt fails before any engine
  // work — exactly the transient failure WorkerLoop's bounded retry covers.
  const faultlib::FaultAction worker_fault =
      LQOLAB_FAULT_POINT("serve.worker");
  if (worker_fault.is_error()) {
    served.status = worker_fault.error("serve.worker");
    return served;
  }

  // The executed plan when adaptive replanning rewrote it mid-flight
  // (kept alive for the observer; ServedQuery::plan renders it).
  std::shared_ptr<const optimizer::PhysicalPlan> replanned;
  const auto execute = [&](const Acquired& src, VirtualNanos planning_ns,
                           VirtualNanos deadline_ns, uint64_t salt) {
    replica->BeginQueryReplay(seed_, q, salt);
    // Under DbConfig::adaptive_replan, pins fed back by an earlier replan of
    // this cache entry seed the estimator, so the corrected plan runs
    // straight through.
    engine::QueryRun run = replica->ExecutePlan(
        q, src.plan->plan, planning_ns, deadline_ns, deadline,
        src.plan->pins.get());
    served.replans = run.replans;
    served.replan_wasted_ns = run.replan_wasted_ns;
    replanned = run.replanned_plan;
    if (run.replans > 0) obs::Count(obs::Counter::kServeReplannedQueries);
    if (!ticket.admission.arrival && src.key != 0 && run.replans > 0 &&
        run.replanned_plan != nullptr && run.status.ok() && !run.timed_out) {
      // Plan feedback: write the corrected plan and its cardinality truths
      // back under the entry's key, so repeat arrivals skip the divergence
      // detection and replan planning this run just paid. Closed-loop
      // (warm-up) only — the open-loop phase is cache-read-only, keeping
      // its completion record independent of worker interleaving.
      CachedPlan corrected;
      corrected.plan = *run.replanned_plan;
      corrected.planning_ns = src.plan->planning_ns;
      corrected.inference_ns = src.plan->inference_ns;
      corrected.estimated_cost = src.plan->estimated_cost;
      corrected.pins = run.replan_pins;
      cache_.Insert(src.key,
                    std::make_shared<const CachedPlan>(std::move(corrected)));
      obs::Count(obs::Counter::kServePlanFeedback);
    }
    return run;
  };

  // The breaker gates the LQO arm only: after a failure/timeout streak the
  // route short-circuits straight to the native plan.
  Acquired lqo;
  bool lqo_allowed = true;
  if (options_.route == RouteMode::kLqo) {
    lqo_allowed = breaker_.AllowRequest();
    served.breaker_short_circuit = !lqo_allowed;
  }
  if (options_.route != RouteMode::kPglite && lqo_allowed) {
    lqo = LqoPlan(q, template_fp);
    if (lqo.infer_fault) {
      served.infer_fault = true;
      obs::Count(obs::Counter::kServeInferFaults);
      // A dead model server is the arm's failure; the query itself is
      // served from the native plan below, no retry needed.
      if (options_.route == RouteMode::kLqo) breaker_.RecordFailure();
    }
  }

  // The plan whose execution produced the final answer; feeds the observer.
  std::shared_ptr<const CachedPlan> winning;
  engine::QueryRun run;
  if (options_.route == RouteMode::kLqo && lqo.plan != nullptr) {
    served.cache_hit = lqo.cache_hit;
    served.inference_ns =
        (lqo.cache_hit ? 0 : lqo.plan->inference_ns) + lqo.infer_latency_ns;
    served.planning_ns =
        lqo.cache_hit ? kPlanCacheHitNs : lqo.plan->planning_ns;
    run = execute(lqo, served.planning_ns, options_.lqo_deadline_ns,
                  ticket.occurrence);
    winning = lqo.plan;
    if (run.timed_out) {
      // The paper's timeout protocol: abandon the learned plan, re-execute
      // the query on the pglite plan, charge the wasted attempt. Blowing
      // the deadline is the model's failure — the breaker hears about it.
      breaker_.RecordFailure();
      served.fell_back = true;
      served.wasted_ns = run.execution_ns;
      obs::Count(obs::Counter::kServeFallbacks);
      // The fallback plan is cached under the era of the snapshot that
      // timed out (not era 0): a published replacement model must not hit
      // the previous era's fallback entries.
      const Acquired native = NativePlan(replica, q, template_fp,
                                         lqo.model_version);
      const VirtualNanos replan_ns =
          native.cache_hit ? kPlanCacheHitNs : native.plan->planning_ns;
      served.planning_ns += replan_ns;
      run = execute(native, replan_ns, /*deadline=*/0,
                    ticket.occurrence | kFallbackSaltBit);
      winning = native.plan;
    } else {
      // Success, or a storage/cancellation failure that is not the model's
      // doing (a transient exec fault retries the whole attempt instead).
      breaker_.RecordSuccess();
    }
  } else {
    // Native execution: the pglite route, the shadow route, the lqo route
    // before any model is published, and every degraded lqo path (breaker
    // open, inference fault).
    if (options_.route == RouteMode::kLqo && lqo_allowed && !lqo.infer_fault) {
      // Allowed through the breaker but no model is published: a healthy
      // no-op for the arm (keeps AllowRequest/Record* exactly paired).
      breaker_.RecordSuccess();
    }
    const Acquired native =
        NativePlan(replica, q, template_fp, /*model_version=*/0);
    served.cache_hit = native.cache_hit;
    served.planning_ns =
        native.cache_hit ? kPlanCacheHitNs : native.plan->planning_ns;
    if (options_.route == RouteMode::kShadow && lqo.plan != nullptr) {
      served.shadow_plan = lqo.plan->plan.ToString(q);
      served.inference_ns =
          (lqo.cache_hit ? 0 : lqo.plan->inference_ns) + lqo.infer_latency_ns;
    }
    run = execute(native, served.planning_ns, /*deadline=*/0,
                  ticket.occurrence);
    winning = native.plan;
  }
  served.execution_ns = run.execution_ns;
  served.timed_out = run.timed_out;
  served.result_rows = run.result_rows;
  served.status = run.status;

  // Adaptive replanning may have rewritten the plan mid-flight: report (and
  // feed the observer) what actually executed, not the admission-time plan.
  const optimizer::PhysicalPlan& executed =
      replanned != nullptr ? *replanned : winning->plan;
  served.plan = executed.ToString(q);
  if (options_.observer != nullptr && served.status.ok() &&
      !served.timed_out) {
    options_.observer->OnPlanExecuted(q, executed, served.execution_ns,
                                      static_cast<uint64_t>(ticket.id));
  }

  return served;
}

}  // namespace lqolab::serve
