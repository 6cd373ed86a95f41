#include "serve/circuit_breaker.h"

#include "obs/metrics.h"
#include "util/check.h"

namespace lqolab::serve {

CircuitBreaker::CircuitBreaker(const CircuitBreakerOptions& options)
    : options_(options) {
  LQOLAB_CHECK_GT(options.failure_threshold, 0);
  LQOLAB_CHECK_GT(options.open_requests, 0);
  LQOLAB_CHECK_GT(options.probe_successes, 0);
  LQOLAB_CHECK_GE(options.probe_spacing, 0);
}

void CircuitBreaker::TripLocked() {
  state_ = State::kOpen;
  failure_streak_ = 0;
  open_count_ = 0;
  probes_in_flight_ = 0;
  probe_streak_ = 0;
  half_open_requests_ = 0;
  ++trips_;
  obs::Count(obs::Counter::kServeBreakerTrips);
}

bool CircuitBreaker::AllowRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (++open_count_ >= options_.open_requests) {
        // The open interval has elapsed (counted in requests, not time):
        // half-open and let this request through as the first probe.
        state_ = State::kHalfOpen;
        probe_streak_ = 0;
        probes_in_flight_ = 1;
        half_open_requests_ = 1;
        obs::Count(obs::Counter::kServeBreakerProbes);
        return true;
      }
      ++short_circuits_;
      obs::Count(obs::Counter::kServeBreakerShortCircuits);
      return false;
    case State::kHalfOpen:
      if (options_.probe_spacing > 0) {
        // Deterministic selection: probe iff this request's index in the
        // half-open window is a multiple of probe_spacing. Independent of
        // whether earlier probes have reported back, so the probe sequence
        // is identical under any load or thread interleaving.
        const bool probe =
            half_open_requests_++ % options_.probe_spacing == 0;
        if (!probe) {
          ++short_circuits_;
          obs::Count(obs::Counter::kServeBreakerShortCircuits);
          return false;
        }
        ++probes_in_flight_;
        obs::Count(obs::Counter::kServeBreakerProbes);
        return true;
      }
      ++half_open_requests_;
      // Classic policy: admit one probe at a time — a burst of queries
      // arriving half-open must not all hit a possibly-still-broken arm.
      // Probe selection is load-dependent (see probe_spacing).
      if (probes_in_flight_ > 0) {
        ++short_circuits_;
        obs::Count(obs::Counter::kServeBreakerShortCircuits);
        return false;
      }
      probes_in_flight_ = 1;
      obs::Count(obs::Counter::kServeBreakerProbes);
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      failure_streak_ = 0;
      return;
    case State::kOpen:
      // Outcome of a request allowed before the trip; the trip already
      // reset the streaks.
      return;
    case State::kHalfOpen:
      if (probes_in_flight_ > 0) --probes_in_flight_;
      if (++probe_streak_ >= options_.probe_successes) {
        state_ = State::kClosed;
        failure_streak_ = 0;
        ++recoveries_;
        obs::Count(obs::Counter::kServeBreakerRecoveries);
      }
      return;
  }
}

void CircuitBreaker::Trip() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != State::kOpen) TripLocked();
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      if (++failure_streak_ >= options_.failure_threshold) TripLocked();
      return;
    case State::kOpen:
      return;  // Late outcome of a pre-trip request.
    case State::kHalfOpen:
      TripLocked();  // One failed probe re-opens immediately.
      return;
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

int64_t CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trips_;
}

int64_t CircuitBreaker::recoveries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recoveries_;
}

int64_t CircuitBreaker::short_circuits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return short_circuits_;
}

}  // namespace lqolab::serve
