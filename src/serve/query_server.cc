#include "serve/query_server.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "exec/cost_constants.h"
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

}  // namespace

const char* RouteModeName(RouteMode mode) {
  switch (mode) {
    case RouteMode::kPglite:
      return "pglite";
    case RouteMode::kLqo:
      return "lqo";
    case RouteMode::kShadow:
      return "shadow";
  }
  return "unknown";
}

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
  return Enqueue(std::move(q), /*template_fp=*/0);
}

std::future<ServedQuery> QueryServer::SubmitSql(const std::string& sql,
                                                const std::string& id) {
  engine::Database::PreparedSql prepared;
  const util::Status bound = parent_->PrepareSql(sql, &prepared, id);
  if (!bound.ok()) {
    // Malformed text is the client's failure, resolved at admission; no
    // ticket, no retry, no engine work.
    {
      std::lock_guard<std::mutex> lock(control_mu_);
      control_metrics_.Add(obs::Counter::kServeSqlRejected, 1);
    }
    ServedQuery served;
    served.query_id = id;
    served.ticket = -1;
    served.route = options_.route;
    served.status = bound;
    std::promise<ServedQuery> promise;
    promise.set_value(std::move(served));
    return promise.get_future();
  }
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    control_metrics_.Add(obs::Counter::kServeSqlQueries, 1);
  }
  return Enqueue(std::move(prepared.query), prepared.template_fingerprint);
}

std::future<ServedQuery> QueryServer::Enqueue(Query q, uint64_t template_fp) {
  std::future<ServedQuery> result;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    space_cv_.wait(lock, [&] {
      return stopping_ ||
             static_cast<int32_t>(queue_.size()) < options_.queue_capacity;
    });
    if (stopping_) {
      // Racing with Shutdown: the query will never run. Resolve it as an
      // explicit kShutdown result instead of aborting the process.
      lock.unlock();
      return ShutdownFuture(q);
    }
    Ticket ticket;
    ticket.query = std::move(q);
    ticket.id = next_ticket_++;
    ticket.sql_template_fp = template_fp;
    ticket.occurrence = occurrences_[exec::QueryFingerprint(ticket.query)]++;
    result = ticket.promise.get_future();
    queue_.push_back(std::move(ticket));
  }
  queue_cv_.notify_one();
  return result;
}

bool QueryServer::TrySubmit(Query q, std::future<ServedQuery>* result) {
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (stopping_) {
      // Accepted and explicitly refused (not backpressure): hand back an
      // immediately-resolved kShutdown result.
      lock.unlock();
      *result = ShutdownFuture(q);
      return true;
    }
    if (static_cast<int32_t>(queue_.size()) >= options_.queue_capacity) {
      obs::Count(obs::Counter::kServeRejected);
      return false;
    }
    Ticket ticket;
    ticket.query = std::move(q);
    ticket.id = next_ticket_++;
    ticket.occurrence = occurrences_[exec::QueryFingerprint(ticket.query)]++;
    *result = ticket.promise.get_future();
    queue_.push_back(std::move(ticket));
  }
  queue_cv_.notify_one();
  return true;
}

std::future<ServedQuery> QueryServer::SubmitAt(Query q,
                                               const OpenLoopArrival& arrival) {
  // Pre-built refusal results resolve outside queue_mu_.
  ServedQuery refused;
  refused.query_id = q.id;
  refused.ticket = -1;
  refused.route = options_.route;
  refused.tenant = arrival.tenant;
  refused.arrival_vt = arrival.arrival_vt;
  refused.completion_vt = arrival.arrival_vt;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (stopping_) {
      lock.unlock();
      return ShutdownFuture(q);
    }
    if (static_cast<int32_t>(queue_.size()) >= options_.queue_capacity) {
      // Open-loop arrivals never block: a full queue is a refusal the SLO
      // accountant sees, not backpressure the arrival process absorbs.
      lock.unlock();
      {
        std::lock_guard<std::mutex> control(control_mu_);
        control_metrics_.Add(obs::Counter::kServeRejected, 1);
      }
      refused.rejected = true;
      refused.status = util::Status(util::StatusCode::kResourceExhausted,
                                    "admission queue full");
      std::promise<ServedQuery> promise;
      promise.set_value(std::move(refused));
      return promise.get_future();
    }
    if (options_.shed_on_predicted_miss && arrival.deadline_budget_ns > 0) {
      // Deadline-aware shedding: predict this arrival's completion on the
      // estimate heap (same G/G/k placement the dispatcher performs, on
      // caller estimates instead of completed truths) and refuse it when
      // it cannot make its deadline — better to fail one query instantly
      // than to let it queue, miss anyway, and drag every later query
      // further past its own budget.
      const VirtualNanos predicted_start =
          std::max(arrival.arrival_vt, admit_heap_.front());
      if (predicted_start + arrival.estimated_service_ns >
          arrival.arrival_vt + arrival.deadline_budget_ns) {
        lock.unlock();
        {
          std::lock_guard<std::mutex> control(control_mu_);
          control_metrics_.Add(obs::Counter::kServeShed, 1);
        }
        refused.shed = true;
        refused.status = util::Status(util::StatusCode::kUnavailable,
                                      "shed: predicted deadline miss");
        std::promise<ServedQuery> promise;
        promise.set_value(std::move(refused));
        return promise.get_future();
      }
    }
    // Admit: advance the estimate heap by this arrival's service estimate
    // (refused arrivals above consumed no capacity, so they left it alone).
    std::pop_heap(admit_heap_.begin(), admit_heap_.end(),
                  std::greater<VirtualNanos>());
    admit_heap_.back() = std::max(arrival.arrival_vt, admit_heap_.back()) +
                         arrival.estimated_service_ns;
    std::push_heap(admit_heap_.begin(), admit_heap_.end(),
                   std::greater<VirtualNanos>());

    Ticket ticket;
    ticket.query = std::move(q);
    ticket.id = next_ticket_++;
    ticket.occurrence = occurrences_[exec::QueryFingerprint(ticket.query)]++;
    ticket.open_loop = true;
    ticket.open_seq = next_open_seq_++;
    ticket.arrival_vt = arrival.arrival_vt;
    ticket.deadline_vt = arrival.deadline_budget_ns > 0
                             ? arrival.arrival_vt + arrival.deadline_budget_ns
                             : 0;
    ticket.tenant = arrival.tenant;
    std::future<ServedQuery> result = ticket.promise.get_future();
    queue_.push_back(std::move(ticket));
    lock.unlock();
    {
      std::lock_guard<std::mutex> control(control_mu_);
      control_metrics_.Add(obs::Counter::kServeOpenLoopQueries, 1);
    }
    queue_cv_.notify_one();
    return result;
  }
}

uint64_t QueryServer::PublishModel(
    std::shared_ptr<lqo::LearnedOptimizer> model) {
  return model_.Publish(std::move(model));
}

void QueryServer::Drain() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

ServedQuery QueryServer::ShutdownResult(const Query& q, int64_t ticket_id) {
  ServedQuery served;
  served.query_id = q.id;
  served.ticket = ticket_id;
  served.route = options_.route;
  served.status = util::Status(util::StatusCode::kShutdown,
                               "server shut down before execution");
  {
    // Shutdown/Submit run on client threads with no MetricsScope; record
    // on the server's own control registry instead.
    std::lock_guard<std::mutex> lock(control_mu_);
    control_metrics_.Add(obs::Counter::kServeShutdownDropped, 1);
  }
  return served;
}

std::future<ServedQuery> QueryServer::ShutdownFuture(const Query& q) {
  std::promise<ServedQuery> promise;
  promise.set_value(ShutdownResult(q, /*ticket_id=*/-1));
  return promise.get_future();
}

void QueryServer::Shutdown() {
  std::vector<Ticket> dropped;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    stopping_ = true;
    queue_cv_.notify_all();
    space_cv_.notify_all();
    // Bounded drain: give the workers a window to absorb the backlog.
    idle_cv_.wait_for(lock,
                      std::chrono::milliseconds(options_.shutdown_drain_ms),
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
    ServedQuery served = ShutdownResult(ticket.query, ticket.id);
    if (ticket.open_loop) {
      // Dropped open-loop admissions still report to the dispatcher (zero
      // service): sequence order must keep advancing or every in-flight
      // admission behind them would buffer forever.
      served.tenant = ticket.tenant;
      served.arrival_vt = ticket.arrival_vt;
      OpenLoopCompletion completion;
      completion.arrival_vt = ticket.arrival_vt;
      completion.deadline_vt = ticket.deadline_vt;
      completion.service_ns = 0;
      completion.served = std::move(served);
      completion.promise = std::move(ticket.promise);
      dispatcher_->Complete(ticket.open_seq, std::move(completion));
    } else {
      ticket.promise.set_value(std::move(served));
    }
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
        backoff += options_.retry_backoff_ns << retries;
        ++retries;
        obs::Count(obs::Counter::kServeRetries);
      }
      served.retries = retries;
      served.backoff_ns = backoff;
      obs::Count(obs::Counter::kServeQueries);
    }
    served.tenant = ticket.tenant;
    served.arrival_vt = ticket.arrival_vt;
    if (ticket.open_loop) {
      // Open-loop: the dispatcher computes the virtual placement (queue
      // wait, completion, deadline verdict) in admission order and resolves
      // the promise — possibly buffering behind a slower earlier admission.
      OpenLoopCompletion completion;
      completion.arrival_vt = ticket.arrival_vt;
      completion.deadline_vt = ticket.deadline_vt;
      completion.service_ns = served.latency_ns();
      completion.served = std::move(served);
      completion.promise = std::move(ticket.promise);
      dispatcher_->Complete(ticket.open_seq, std::move(completion));
    } else {
      ticket.promise.set_value(std::move(served));
    }
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
  // Forced plans skip join-order search in the engine; hint-based methods
  // (Bao) report their per-hint-set plannings instead — the same accounting
  // as benchkit::MeasureWorkload.
  cached.planning_ns =
      prediction.planning_ns > 0
          ? prediction.planning_ns
          : static_cast<VirtualNanos>(q.relation_count()) *
                exec::cost::kPlanPerRelationNs;
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
  const Query& q = ticket.query;
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
    if (options_.deterministic_replay) {
      replica->BeginQueryReplay(seed_, q, salt);
    }
    // Pass-through to ExecutePlan unless DbConfig::adaptive_replan is on.
    // Pins fed back by an earlier replan of this cache entry seed the
    // estimator, so the corrected plan runs straight through.
    engine::QueryRun run = replica->ExecutePlanAdaptive(
        q, src.plan->plan, planning_ns, deadline_ns, deadline,
        src.plan->pins.get());
    served.replans = run.replans;
    served.replan_wasted_ns = run.replan_wasted_ns;
    replanned = run.replanned_plan;
    if (run.replans > 0) obs::Count(obs::Counter::kServeReplannedQueries);
    if (!ticket.open_loop && src.key != 0 && run.replans > 0 &&
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
    lqo = LqoPlan(q, ticket.sql_template_fp);
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
  if (options_.route == RouteMode::kLqo && lqo.plan != nullptr) {
    served.cache_hit = lqo.cache_hit;
    served.inference_ns =
        (lqo.cache_hit ? 0 : lqo.plan->inference_ns) + lqo.infer_latency_ns;
    served.planning_ns =
        lqo.cache_hit ? kPlanCacheHitNs : lqo.plan->planning_ns;
    engine::QueryRun run = execute(lqo, served.planning_ns,
                                   options_.lqo_deadline_ns,
                                   ticket.occurrence);
    served.plan = lqo.plan->plan.ToString(q);
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
      const Acquired native = NativePlan(replica, q, ticket.sql_template_fp,
                                         lqo.model_version);
      const VirtualNanos replan_ns =
          native.cache_hit ? kPlanCacheHitNs : native.plan->planning_ns;
      served.planning_ns += replan_ns;
      run = execute(native, replan_ns, /*deadline=*/0,
                    ticket.occurrence | kFallbackSaltBit);
      served.plan = native.plan->plan.ToString(q);
      winning = native.plan;
    } else {
      // Success, or a storage/cancellation failure that is not the model's
      // doing (a transient exec fault retries the whole attempt instead).
      breaker_.RecordSuccess();
    }
    served.execution_ns = run.execution_ns;
    served.timed_out = run.timed_out;
    served.result_rows = run.result_rows;
    served.status = run.status;
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
        NativePlan(replica, q, ticket.sql_template_fp, /*model_version=*/0);
    served.cache_hit = native.cache_hit;
    served.planning_ns =
        native.cache_hit ? kPlanCacheHitNs : native.plan->planning_ns;
    if (options_.route == RouteMode::kShadow && lqo.plan != nullptr) {
      served.shadow_plan = lqo.plan->plan.ToString(q);
      served.inference_ns =
          (lqo.cache_hit ? 0 : lqo.plan->inference_ns) + lqo.infer_latency_ns;
    }
    const engine::QueryRun run = execute(native, served.planning_ns,
                                         /*deadline=*/0, ticket.occurrence);
    served.plan = native.plan->plan.ToString(q);
    winning = native.plan;
    served.execution_ns = run.execution_ns;
    served.timed_out = run.timed_out;
    served.result_rows = run.result_rows;
    served.status = run.status;
  }

  if (replanned != nullptr) {
    // Adaptive replanning rewrote the plan mid-flight: report (and feed the
    // observer) what actually executed, not the admission-time plan.
    served.plan = replanned->ToString(q);
  }
  if (options_.observer != nullptr && winning != nullptr &&
      served.status.ok() && !served.timed_out) {
    options_.observer->OnPlanExecuted(
        q, replanned != nullptr ? *replanned : winning->plan,
        served.execution_ns, static_cast<uint64_t>(ticket.id));
  }

  return served;
}

}  // namespace lqolab::serve
