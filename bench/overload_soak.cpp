// Open-loop overload soak (docs/overload.md): drives serve::QueryServer
// with a seeded non-blocking arrival process (loadgen::OpenLoopRunner) and
// records how tail latency, deadline-miss rate and goodput respond as
// offered load crosses measured capacity. Four experiments, one JSON
// document (stdout, or the file given as argv[1]; see BENCH_overload.json
// at the repo root for a recorded run):
//
//   1. Load sweep: offered multiples {0.5, 1.0, 1.5} x capacity, with and
//      without deadline-aware admission shedding
//      (ServerOptions::shed_on_predicted_miss). Gate: at 1.5x capacity,
//      shedding must preserve >= 2x the goodput of the no-shedding server —
//      the textbook goodput-collapse-vs-load-control result.
//   2. Reproducibility: the 1.5x shedding arm re-runs and must produce a
//      bit-identical completion fingerprint (all virtual metrics are
//      scheduling-independent; see serve/dispatcher.h).
//   3. Replan pair: a keyed "stats.estimate" poison schedule (catastrophic
//      1e-4 underestimates on a seeded quarter of the (query, subplan) key
//      space) degrades the planner, then the same offered load runs with
//      DbConfig::adaptive_replan off and on. Gate: mid-query cancel-and-
//      replan must beat straight-through execution at p99.
//   4. Replan differential: every JOB-lite query executes its clean plan
//      straight through and with DbConfig::adaptive_replan on under the
//      poison; the result rows must be byte-identical (replans may only
//      cost time).
//
// All latency/goodput figures are virtual-time and machine-independent;
// only wall_ms measures the machine. --quick shrinks the arrival counts
// for ctest.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "faultlib/faultlib.h"
#include "loadgen/open_loop.h"
#include "util/rng.h"

namespace {

using namespace lqolab;
using loadgen::OpenLoopOptions;
using loadgen::OpenLoopResult;
using loadgen::OpenLoopRunner;
using loadgen::RateProfile;
using loadgen::TenantSpec;

/// The standard three-tenant mix: an interactive tenant with a hot Zipf
/// head, a dashboard tenant with milder skew, and a near-uniform batch
/// tenant. Deadline budgets self-calibrate from the measured mean service
/// time (OpenLoopOptions::deadline_service_multiple).
std::vector<TenantSpec> StandardTenants() {
  return {
      {"interactive", /*weight=*/3.0, /*zipf_s=*/1.2, /*deadline=*/0},
      {"dashboard", /*weight=*/2.0, /*zipf_s=*/0.8, /*deadline=*/0},
      {"batch", /*weight=*/1.0, /*zipf_s=*/0.3, /*deadline=*/0},
  };
}

OpenLoopOptions BaseOptions(int64_t target_arrivals) {
  OpenLoopOptions options;
  options.profile = RateProfile::Constant(100.0);  // base_qps overridden
  options.tenants = StandardTenants();
  options.virtual_workers = 4;
  options.queue_capacity = 4096;
  options.target_arrivals = target_arrivals;
  options.deadline_service_multiple = 8.0;
  options.seed = bench::kSeed;
  return options;
}

/// The estimator-poison schedule of the replan experiments: keyed kPoison
/// on "stats.estimate", so the fire decision is a pure function of the
/// (query, subplan-mask) key — identical for every thread interleaving.
faultlib::FaultPlan PoisonPlan() {
  faultlib::FaultPlan plan;
  plan.name = "estimate_poison";
  plan.seed = util::MixSeed(bench::kSeed, 0x9e150'7150ull);
  faultlib::FaultRule rule;
  rule.point = "stats.estimate";
  rule.kind = faultlib::FaultKind::kPoison;
  rule.probability = 0.25;
  rule.poison_scale = 1e-4;
  plan.Add(rule);
  return plan;
}

struct SweepPoint {
  double multiple = 0.0;
  bool shed = false;
  OpenLoopResult result;
  double wall_ms = 0.0;
};

std::string SweepPointJson(const SweepPoint& point) {
  const loadgen::TenantSlo& agg = point.result.report.aggregate;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "    {\"offered_multiple\": %.2f, \"shed\": %s, \"arrivals\": %lld, "
      "\"offered_qps\": %.1f, \"capacity_qps\": %.1f, "
      "\"ok\": %lld, \"shed_count\": %lld, \"rejected\": %lld, "
      "\"timed_out\": %lld, \"failed\": %lld, \"deadline_missed\": %lld, "
      "\"goodput_qps\": %.1f, \"miss_rate\": %.4f, "
      "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p99_queue_ms\": %.3f, "
      "\"wall_ms\": %.0f}",
      point.multiple, point.shed ? "true" : "false",
      static_cast<long long>(point.result.arrivals),
      point.result.offered_qps, point.result.capacity_qps,
      static_cast<long long>(agg.ok), static_cast<long long>(agg.shed),
      static_cast<long long>(agg.rejected),
      static_cast<long long>(agg.timed_out),
      static_cast<long long>(agg.failed),
      static_cast<long long>(agg.deadline_missed), agg.goodput_qps,
      agg.miss_rate, agg.p50_total_ms, agg.p99_total_ms, agg.p99_queue_ms,
      point.wall_ms);
  return buffer;
}

double WallMs(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lqolab;

  bool quick = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }

  auto db = bench::MakeDatabase(quick ? 0.1 : 0.25);
  const auto workload = query::LoadWorkload("job", db->schema());
  const int64_t target_arrivals = quick ? 300 : 600;
  OpenLoopRunner runner(db.get(), workload);

  // --- 1. Load sweep: offered multiple x shedding policy ------------------
  std::vector<SweepPoint> sweep;
  for (const double multiple : {0.5, 1.0, 1.5}) {
    for (const bool shed : {false, true}) {
      OpenLoopOptions options = BaseOptions(target_arrivals);
      options.offered_multiple = multiple;
      options.shed_on_predicted_miss = shed;
      const auto start = std::chrono::steady_clock::now();
      SweepPoint point;
      point.multiple = multiple;
      point.shed = shed;
      point.result = runner.Run(options);
      point.wall_ms = WallMs(start);
      const loadgen::TenantSlo& agg = point.result.report.aggregate;
      std::fprintf(stderr,
                   "  sweep x%.1f shed=%d: ok=%lld shed=%lld missed=%lld "
                   "goodput=%.1fqps p99=%.2fms\n",
                   multiple, shed ? 1 : 0, static_cast<long long>(agg.ok),
                   static_cast<long long>(agg.shed),
                   static_cast<long long>(agg.deadline_missed),
                   agg.goodput_qps, agg.p99_total_ms);
      sweep.push_back(std::move(point));
    }
  }
  const SweepPoint& overload_noshed = sweep[4];  // 1.5x, shed=false
  const SweepPoint& overload_shed = sweep[5];    // 1.5x, shed=true
  const double shed_goodput_ratio =
      overload_shed.result.report.aggregate.goodput_qps /
      std::max(1e-9, overload_noshed.result.report.aggregate.goodput_qps);

  // --- 2. Reproducibility: re-run the overloaded shedding arm -------------
  bool reproducible = false;
  {
    OpenLoopOptions options = BaseOptions(target_arrivals);
    options.offered_multiple = 1.5;
    options.shed_on_predicted_miss = true;
    const OpenLoopResult rerun = runner.Run(options);
    reproducible = rerun.fingerprint == overload_shed.result.fingerprint &&
                   rerun.arrivals == overload_shed.result.arrivals;
    std::fprintf(stderr, "  reproducible: %s\n", reproducible ? "yes" : "NO");
  }

  // --- 3. Replan pair: poisoned estimator, adaptive_replan off vs on ------
  const engine::DbConfig base_config = db->config();
  faultlib::FaultInjector poison(PoisonPlan());
  OpenLoopResult replan_off;
  OpenLoopResult replan_on;
  {
    faultlib::ScopedFaultInjection inject(&poison);
    OpenLoopOptions options = BaseOptions(target_arrivals);
    options.offered_multiple = 0.9;
    options.shed_on_predicted_miss = false;

    replan_off = runner.Run(options);

    // Same aggressive trigger as the differential below: with spooled-
    // intermediate reuse making an abandoned prefix cheap to revisit, a low
    // threshold catches divergence early enough to matter at the tail.
    engine::DbConfig adaptive = base_config;
    adaptive.adaptive_replan = true;
    adaptive.replan_qerror_threshold = 4.0;
    adaptive.replan_min_rows = 1;
    db->SetConfig(adaptive);
    replan_on = runner.Run(options);
    db->SetConfig(base_config);
  }
  const double off_p99 = replan_off.report.aggregate.p99_total_ms;
  const double on_p99 = replan_on.report.aggregate.p99_total_ms;
  std::fprintf(stderr,
               "  replan pair: p99 off=%.2fms on=%.2fms (replans=%lld)\n",
               off_p99, on_p99,
               static_cast<long long>(replan_on.report.aggregate.replans));

  // --- 4. Replan differential: byte-identical results under poison --------
  bool differential_identical = true;
  int64_t differential_replans = 0;
  {
    // The clean baseline plans and runs without injection; both poisoned
    // arms *plan under the poison* (the serve scenario: a degraded
    // estimator produced the plan) and execute it straight through vs
    // adaptively. Rows must agree across all three.
    engine::DbConfig adaptive = base_config;
    adaptive.adaptive_replan = true;
    adaptive.replan_qerror_threshold = 4.0;
    adaptive.replan_min_rows = 1;
    double clean_ns = 0.0, straight_ns = 0.0, adaptive_ns = 0.0;
    for (const query::Query& q : workload) {
      const auto clean_replica = db->CloneContextForWorker();
      clean_replica->BeginQueryReplay(bench::kSeed, q);
      const engine::Database::Planned clean_planned =
          clean_replica->PlanQuery(q);
      clean_replica->BeginQueryReplay(bench::kSeed, q);
      const engine::QueryRun clean =
          clean_replica->ExecutePlan(q, clean_planned.plan);
      clean_ns += static_cast<double>(clean.execution_ns);

      faultlib::ScopedFaultInjection inject(&poison);
      const auto poisoned_replica = db->CloneContextForWorker();
      poisoned_replica->BeginQueryReplay(bench::kSeed, q);
      const engine::Database::Planned poisoned_planned =
          poisoned_replica->PlanQuery(q);
      poisoned_replica->BeginQueryReplay(bench::kSeed, q);
      const engine::QueryRun straight =
          poisoned_replica->ExecutePlan(q, poisoned_planned.plan);
      straight_ns += static_cast<double>(straight.execution_ns);

      const auto adaptive_replica = db->CloneContextForWorker();
      adaptive_replica->SetConfig(adaptive);
      adaptive_replica->BeginQueryReplay(bench::kSeed, q);
      const engine::QueryRun replanned =
          adaptive_replica->ExecutePlan(q, poisoned_planned.plan);
      adaptive_ns += static_cast<double>(replanned.execution_ns);
      differential_replans += replanned.replans;
      if (replanned.result_rows != clean.result_rows ||
          straight.result_rows != clean.result_rows ||
          !replanned.status.ok() || !straight.status.ok() ||
          !clean.status.ok()) {
        differential_identical = false;
        std::fprintf(
            stderr,
            "  DIFFERENTIAL MISMATCH %s: clean=%lld straight=%lld "
            "replanned=%lld\n",
            q.id.c_str(), static_cast<long long>(clean.result_rows),
            static_cast<long long>(straight.result_rows),
            static_cast<long long>(replanned.result_rows));
      }
    }
    std::fprintf(stderr,
                 "  replan differential: %zu queries, %lld replans, %s "
                 "(exec sums: clean=%.1fms poisoned=%.1fms adaptive=%.1fms)\n",
                 workload.size(), static_cast<long long>(differential_replans),
                 differential_identical ? "identical" : "MISMATCH",
                 clean_ns / 1e6, straight_ns / 1e6, adaptive_ns / 1e6);
  }

  std::string json = "{\n";
  json += "  \"bench\": \"overload_soak\",\n";
  json += "  \"seed\": " + std::to_string(bench::kSeed) + ",\n";
  json += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  json += "  \"workload_queries\": " + std::to_string(workload.size()) + ",\n";
  json += "  \"virtual_workers\": 4,\n";
  json += "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    json += SweepPointJson(sweep[i]);
    json += i + 1 < sweep.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "  \"shed_goodput_ratio\": %.2f,\n"
      "  \"reproducible\": %s,\n"
      "  \"replan_pair\": {\"offered_multiple\": 0.9, "
      "\"no_replan_p99_ms\": %.3f, \"replan_p99_ms\": %.3f, "
      "\"no_replan_miss_rate\": %.4f, \"replan_miss_rate\": %.4f, "
      "\"replans\": %lld},\n"
      "  \"replan_differential_identical\": %s,\n"
      "  \"replan_differential_replans\": %lld\n",
      shed_goodput_ratio, reproducible ? "true" : "false", off_p99, on_p99,
      replan_off.report.aggregate.miss_rate,
      replan_on.report.aggregate.miss_rate,
      static_cast<long long>(replan_on.report.aggregate.replans),
      differential_identical ? "true" : "false",
      static_cast<long long>(differential_replans));
  json += buffer;
  json += "}\n";

  if (!bench::WriteDocument(out_path, json)) return 1;

  // Self-gates (mirrored by tests/check_bench_gates.sh on the recorded
  // JSON): load shedding must preserve goodput past saturation, replans
  // must beat straight-through tails under a poisoned estimator, replans
  // must actually fire, and results must be reproducible and identical.
  bool ok = true;
  if (shed_goodput_ratio < 2.0) {
    std::fprintf(stderr, "GATE FAILED: shed_goodput_ratio %.2f < 2.0\n",
                 shed_goodput_ratio);
    ok = false;
  }
  if (on_p99 >= off_p99) {
    std::fprintf(stderr, "GATE FAILED: replan p99 %.2f >= no-replan %.2f\n",
                 on_p99, off_p99);
    ok = false;
  }
  // Plan feedback corrects hot plans during warmup, so the open-loop phase
  // itself may (rightly) replan little; the differential arm is where the
  // mechanism must demonstrably fire.
  if (differential_replans <= 0) {
    std::fprintf(stderr, "GATE FAILED: differential arm never replanned\n");
    ok = false;
  }
  if (!reproducible) {
    std::fprintf(stderr, "GATE FAILED: fingerprint not reproducible\n");
    ok = false;
  }
  if (!differential_identical) {
    std::fprintf(stderr, "GATE FAILED: replan differential mismatch\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
