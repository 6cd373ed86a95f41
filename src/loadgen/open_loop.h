#ifndef LQOLAB_LOADGEN_OPEN_LOOP_H_
#define LQOLAB_LOADGEN_OPEN_LOOP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/database.h"
#include "loadgen/arrival.h"
#include "loadgen/slo.h"
#include "query/query.h"
#include "util/virtual_clock.h"

namespace lqolab::loadgen {

/// One open-loop overload experiment (docs/overload.md).
struct OpenLoopOptions {
  /// Arrival shape. When `offered_multiple` > 0, base_qps is overridden
  /// with offered_multiple * measured capacity (the usual way to sweep
  /// offered load as a fraction of what the server can actually serve).
  RateProfile profile = RateProfile::Constant(100.0);
  double offered_multiple = 0.0;
  std::vector<TenantSpec> tenants;
  /// When > 0, the arrival window (10 virtual seconds otherwise) is sized
  /// so the expected arrival count is this value regardless of
  /// capacity/multiple — keeps wall-clock cost predictable across machines
  /// and LQOLAB_SCALE settings.
  int64_t target_arrivals = 0;
  /// When > 0, every tenant whose deadline_budget_ns is 0 gets a budget of
  /// this multiple of the mix-weighted mean warm service time — an SLO
  /// that self-calibrates to the database scale.
  double deadline_service_multiple = 0.0;
  /// Virtual service capacity k (dispatcher + shedding predictor).
  int32_t virtual_workers = 4;
  /// Real worker threads (wall-clock only; 0 = hardware default).
  int32_t real_workers = 0;
  int32_t queue_capacity = 4096;
  /// Deadline-aware admission shedding (ServerOptions::shed_on_predicted_miss).
  bool shed_on_predicted_miss = false;
  uint64_t seed = 42;
};

/// Outcome of one OpenLoopRunner::Run.
struct OpenLoopResult {
  SloReport report;
  /// Virtual queries/second the server can complete at 100% utilization:
  /// virtual_workers / mix-weighted mean service time (from the warmup
  /// pass). The denominator of every "offered multiple".
  double capacity_qps = 0.0;
  /// base_qps the run actually offered (after offered_multiple scaling).
  double offered_qps = 0.0;
  int64_t arrivals = 0;
  /// Warm per-query virtual service estimates (index = workload index);
  /// these were handed to SubmitAt as the shedding predictor's input.
  std::vector<util::VirtualNanos> service_estimate_ns;
  /// Order-independent digest of every completion's (rows, completion_vt):
  /// two runs with the same options must produce the same fingerprint —
  /// the reproducibility assertion of tests and benches.
  uint64_t fingerprint = 0;
};

/// Drives a QueryServer with a seeded open-loop arrival stream and scores
/// the outcome against per-tenant SLOs. The runner owns the full protocol:
///   1. a closed-loop warmup pass over every distinct workload query (twice:
///      once to warm the plan cache, once to measure warm virtual service
///      times, which become the shedding predictor's estimates),
///   2. capacity calibration from those estimates and the tenant mix,
///   3. arrival generation (ArrivalGenerator) over the horizon,
///   4. SubmitAt for every arrival, future collection, SLO accounting.
/// Deterministic end to end: virtual metrics depend only on (options,
/// workload, database seed), never on real thread scheduling.
class OpenLoopRunner {
 public:
  /// `db` must outlive the runner; it is never executed on directly
  /// (QueryServer replicates it per worker).
  OpenLoopRunner(engine::Database* db, std::vector<query::Query> workload);

  OpenLoopResult Run(const OpenLoopOptions& options);

  const std::vector<query::Query>& workload() const { return workload_; }

 private:
  engine::Database* db_;
  std::vector<query::Query> workload_;
};

}  // namespace lqolab::loadgen

#endif  // LQOLAB_LOADGEN_OPEN_LOOP_H_
