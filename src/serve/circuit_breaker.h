#ifndef LQOLAB_SERVE_CIRCUIT_BREAKER_H_
#define LQOLAB_SERVE_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <mutex>

namespace lqolab::serve {

/// Tuning of one CircuitBreaker. All thresholds are request counts, not
/// wall-clock durations: the serving stack runs on virtual time, and
/// count-based transitions keep chaos runs deterministic.
struct CircuitBreakerOptions {
  /// Consecutive failures in kClosed (or one failure in kHalfOpen) that
  /// trip the breaker open.
  int32_t failure_threshold = 3;
  /// Requests short-circuited while kOpen before the breaker half-opens
  /// (the count-based stand-in for an open-interval timer).
  int32_t open_requests = 32;
  /// Consecutive probe successes in kHalfOpen that close the breaker.
  int32_t probe_successes = 2;
  /// Half-open probe admission policy. 0 (classic) admits one probe at a
  /// time: a request is a probe iff no earlier probe is still unreported —
  /// which makes probe *selection* depend on outcome timing, i.e. on load
  /// (two configurations replaying the same request sequence pick
  /// different probes when service times differ). > 0 selects
  /// deterministically by request index instead: every probe_spacing-th
  /// half-open request is a probe, counted under the breaker lock,
  /// regardless of what earlier probes are doing. Same admitted-probe
  /// *sequence* in any schedule — the property BENCH_overload.json's
  /// reproducibility gate relies on.
  int32_t probe_spacing = 0;
};

/// Per-route circuit breaker guarding the LQO arm of a QueryServer: after a
/// streak of inference faults / plan timeouts the route trips and queries
/// short-circuit to the native pglite plan, shedding a misbehaving model
/// instead of paying its failure latency per query. After `open_requests`
/// short-circuits the breaker half-opens and lets probe queries through;
/// a probe streak closes it, one probe failure re-trips it.
///
///   kClosed --failure streak--> kOpen --count elapsed--> kHalfOpen
///      ^                                                    |
///      +---------------- probe streak ----------------------+
///
/// Thread-safe; one instance is shared by all worker threads.
class CircuitBreaker {
 public:
  enum class State : int32_t { kClosed = 0, kOpen, kHalfOpen };

  explicit CircuitBreaker(const CircuitBreakerOptions& options);

  /// Gate, called before routing a query to the guarded arm. Returns true
  /// to attempt the arm (closed, or a half-open probe), false to
  /// short-circuit to the fallback. Every AllowRequest()==true MUST be
  /// paired with exactly one RecordSuccess() or RecordFailure().
  bool AllowRequest();

  /// Reports the outcome of an allowed request.
  void RecordSuccess();
  void RecordFailure();

  /// Forces the breaker open immediately, outside the AllowRequest pairing
  /// protocol. For out-of-band evidence that the guarded arm is unhealthy —
  /// e.g. the cost-model drift detector (docs/cost_models.md) observing a
  /// rolling Q-error blowup across many already-reported requests. No-op
  /// when already open.
  void Trip();

  State state() const;
  /// Lifetime closed->open (or half-open->open) transitions.
  int64_t trips() const;
  /// Lifetime half-open->closed transitions.
  int64_t recoveries() const;
  /// Lifetime requests short-circuited while open.
  int64_t short_circuits() const;

 private:
  void TripLocked();

  const CircuitBreakerOptions options_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  /// Consecutive failures while closed.
  int32_t failure_streak_ = 0;
  /// Requests short-circuited since the breaker opened.
  int32_t open_count_ = 0;
  /// Probes in flight (allowed but unreported) while half-open.
  int32_t probes_in_flight_ = 0;
  /// Requests seen while half-open (deterministic probe selection).
  int64_t half_open_requests_ = 0;
  /// Consecutive probe successes while half-open.
  int32_t probe_streak_ = 0;
  int64_t trips_ = 0;
  int64_t recoveries_ = 0;
  int64_t short_circuits_ = 0;
};

}  // namespace lqolab::serve

#endif  // LQOLAB_SERVE_CIRCUIT_BREAKER_H_
