// Chaos soak: replays the JOB-lite serve workload through serve::QueryServer
// under a rotation of faultlib schedules — storage errors, latency spikes,
// poisoned inference, a model outage — and verifies that every injected
// fault is either contained (a typed error status) or recovered (retry,
// timeout fallback, native serving, breaker short-circuit) and that no
// fault ever corrupts an answer: every OK result must match the canonical
// fault-free row count. Emits one JSON document (stdout, or the file given
// as argv[1]); the recorded run lives at BENCH_chaos.json. Exit status is
// nonzero unless containment is 100% and zero results were corrupted.
//
// Knobs (environment):
//   LQOLAB_CHAOS_QUERIES  queries per schedule (default 250)
//   LQOLAB_CHAOS_SEED     fault-plan seed base (default 42)
//   LQOLAB_CHAOS_WORKERS  server worker threads (default 4)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "engine/database.h"
#include "faultlib/faultlib.h"
#include "lqo/native_passthrough.h"
#include "obs/metrics.h"
#include "query/sql_workload.h"
#include "serve/query_server.h"
#include "util/rng.h"
#include "util/status.h"

namespace {

using namespace lqolab;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atoll(value);
}

faultlib::FaultRule Rule(const char* point, faultlib::FaultKind kind,
                         double probability,
                         util::VirtualNanos latency_ns = 0) {
  faultlib::FaultRule rule;
  rule.point = point;
  rule.kind = kind;
  rule.probability = probability;
  rule.latency_ns = latency_ns;
  return rule;
}

struct ScheduleSpec {
  std::string name;
  faultlib::FaultPlan plan;
  serve::ServerOptions server;
  bool publish_model = false;
};

/// The four chaos scenarios. Every armed point fires with probability
/// >= 1% per hit; the fault-point catalog is in docs/robustness.md.
std::vector<ScheduleSpec> ScheduleRotation(uint64_t seed, int32_t workers) {
  serve::ServerOptions base;
  base.workers = workers;

  std::vector<ScheduleSpec> specs;
  {
    // Transient storage faults on the pglite route: bounded retry absorbs
    // most of them, the rest surface as typed kUnavailable results.
    ScheduleSpec spec;
    spec.name = "storage_errors";
    spec.plan.name = spec.name;
    spec.plan.Add(Rule("buffer.read_page", faultlib::FaultKind::kError, 0.01));
    spec.plan.Add(Rule("buffer.alloc", faultlib::FaultKind::kError, 0.01));
    spec.server = base;
    specs.push_back(std::move(spec));
  }
  {
    // Latency spikes only: every query must still succeed with the correct
    // answer, just slower in virtual time.
    ScheduleSpec spec;
    spec.name = "latency_spikes";
    spec.plan.name = spec.name;
    spec.plan.Add(Rule("buffer.read_page", faultlib::FaultKind::kLatency,
                       0.02, 200'000));
    spec.plan.Add(
        Rule("exec.node", faultlib::FaultKind::kLatency, 0.05, 100'000));
    spec.server = base;
    specs.push_back(std::move(spec));
  }
  {
    // Poisoned inference on the LQO route: the degraded plan executes, the
    // answer must be unchanged (poison may cost time, never correctness).
    ScheduleSpec spec;
    spec.name = "poisoned_inference";
    spec.plan.name = spec.name;
    spec.plan.Add(Rule("lqo.infer", faultlib::FaultKind::kPoison, 0.10));
    spec.server = base;
    spec.server.route = serve::RouteMode::kLqo;
    spec.publish_model = true;
    specs.push_back(std::move(spec));
  }
  {
    // Model outage: most inferences fail, the circuit breaker trips, sheds
    // load to the native planner, probes, and recovers once inference comes
    // back. A pinch of worker faults exercises retry under breaker churn.
    ScheduleSpec spec;
    spec.name = "model_outage";
    spec.plan.name = spec.name;
    spec.plan.Add(Rule("lqo.infer", faultlib::FaultKind::kError, 0.60));
    spec.plan.Add(Rule("serve.worker", faultlib::FaultKind::kError, 0.01));
    spec.server = base;
    spec.server.route = serve::RouteMode::kLqo;
    spec.server.breaker.failure_threshold = 3;
    spec.server.breaker.open_requests = 8;
    spec.server.breaker.probe_successes = 1;
    spec.publish_model = true;
    specs.push_back(std::move(spec));
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].plan.seed = util::MixSeed(seed, i);
  }
  return specs;
}

int64_t Percentile(std::vector<int64_t>* sorted, double p) {
  if (sorted->empty()) return 0;
  std::sort(sorted->begin(), sorted->end());
  const auto index = static_cast<size_t>(
      p * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[index];
}

struct ScheduleResult {
  std::string name;
  int64_t queries = 0;
  int64_t clean = 0;      ///< OK, no fault touched the query.
  int64_t recovered = 0;  ///< OK after retry/fallback/native/short-circuit.
  int64_t contained = 0;  ///< Typed non-OK status (no crash, no hang).
  int64_t corrupted = 0;  ///< OK but wrong rows — must stay zero.
  int64_t retries = 0;
  int64_t fallbacks = 0;
  int64_t infer_faults = 0;
  int64_t breaker_trips = 0;
  int64_t breaker_recoveries = 0;
  int64_t breaker_short_circuits = 0;
  std::vector<faultlib::PointStats> points;
  /// Client-visible virtual latency of the successful queries: the cost of
  /// surviving this schedule (backoff, fallbacks and latency spikes show up
  /// here; contained errors do not).
  int64_t latency_p50_ns = 0;
  int64_t latency_p95_ns = 0;
  int64_t latency_p99_ns = 0;
  double wall_ms = 0.0;
};

ScheduleResult RunSchedule(
    engine::Database* db, const std::vector<query::Query>& workload,
    const std::unordered_map<std::string, int64_t>& expected_rows,
    const ScheduleSpec& spec, int64_t queries) {
  ScheduleResult result;
  result.name = spec.name;

  serve::QueryServer server(db, spec.server);
  if (spec.publish_model) {
    server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());
  }
  faultlib::FaultInjector injector(spec.plan);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<serve::ServedQuery> served;
  served.reserve(static_cast<size_t>(queries));
  {
    faultlib::ScopedFaultInjection inject(&injector);
    std::vector<std::future<serve::ServedQuery>> futures;
    futures.reserve(static_cast<size_t>(queries));
    for (int64_t i = 0; i < queries; ++i) {
      futures.push_back(
          server.Submit(workload[static_cast<size_t>(i) % workload.size()]));
    }
    for (auto& future : futures) served.push_back(future.get());
    server.Drain();
  }
  result.wall_ms =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()) /
      1000.0;

  std::vector<int64_t> ok_latencies;
  for (const serve::ServedQuery& q : served) {
    ++result.queries;
    if (!q.status.ok()) {
      ++result.contained;
      continue;
    }
    ok_latencies.push_back(q.latency_ns());
    if (q.result_rows != expected_rows.at(q.query_id)) {
      ++result.corrupted;
      std::fprintf(stderr, "CORRUPTED %s/%s: rows %lld, expected %lld\n",
                   spec.name.c_str(), q.query_id.c_str(),
                   static_cast<long long>(q.result_rows),
                   static_cast<long long>(expected_rows.at(q.query_id)));
      continue;
    }
    if (q.retries > 0 || q.fell_back || q.infer_fault ||
        q.breaker_short_circuit) {
      ++result.recovered;
    } else {
      ++result.clean;
    }
  }

  result.latency_p50_ns = Percentile(&ok_latencies, 0.50);
  result.latency_p95_ns = Percentile(&ok_latencies, 0.95);
  result.latency_p99_ns = Percentile(&ok_latencies, 0.99);

  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  result.retries = metrics.Get(obs::Counter::kServeRetries);
  result.fallbacks = metrics.Get(obs::Counter::kServeFallbacks);
  result.infer_faults = metrics.Get(obs::Counter::kServeInferFaults);
  result.breaker_trips = metrics.Get(obs::Counter::kServeBreakerTrips);
  result.breaker_recoveries =
      metrics.Get(obs::Counter::kServeBreakerRecoveries);
  result.breaker_short_circuits =
      metrics.Get(obs::Counter::kServeBreakerShortCircuits);
  result.points = injector.Stats();
  server.Shutdown();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t queries_per_schedule = EnvInt("LQOLAB_CHAOS_QUERIES", 250);
  const uint64_t seed = static_cast<uint64_t>(EnvInt("LQOLAB_CHAOS_SEED", 42));
  const int32_t workers =
      static_cast<int32_t>(EnvInt("LQOLAB_CHAOS_WORKERS", 4));

  engine::Database::Options db_options;
  db_options.profile = datagen::ScaleProfile::Small();
  db_options.seed = 42;
  const auto db = engine::Database::CreateImdb(db_options);
  const auto workload = query::LoadWorkload("job", db->schema());

  // The canonical fault-free answer per query (row counts are independent
  // of the replay salt, so one clean pass covers every occurrence).
  std::unordered_map<std::string, int64_t> expected_rows;
  {
    const auto replica = db->CloneContextForWorker();
    for (const query::Query& q : workload) {
      const auto planned = replica->PlanQuery(q);
      replica->BeginQueryReplay(db->seed(), q);
      expected_rows[q.id] =
          replica->ExecutePlan(q, planned.plan, planned.planning_ns)
              .result_rows;
    }
  }

  std::vector<ScheduleResult> results;
  for (const ScheduleSpec& spec : ScheduleRotation(seed, workers)) {
    ScheduleResult result = RunSchedule(db.get(), workload, expected_rows,
                                        spec, queries_per_schedule);
    std::fprintf(stderr,
                 "%s: %lld queries (%lld clean, %lld recovered, "
                 "%lld contained, %lld corrupted), %lld retries, "
                 "%lld fallbacks, %lld trips, %lld recoveries, %.0f ms\n",
                 result.name.c_str(), static_cast<long long>(result.queries),
                 static_cast<long long>(result.clean),
                 static_cast<long long>(result.recovered),
                 static_cast<long long>(result.contained),
                 static_cast<long long>(result.corrupted),
                 static_cast<long long>(result.retries),
                 static_cast<long long>(result.fallbacks),
                 static_cast<long long>(result.breaker_trips),
                 static_cast<long long>(result.breaker_recoveries),
                 result.wall_ms);
    results.push_back(std::move(result));
  }

  int64_t total = 0;
  int64_t corrupted = 0;
  int64_t handled = 0;  // clean + recovered + contained
  int64_t fault_fires = 0;
  for (const ScheduleResult& r : results) {
    total += r.queries;
    corrupted += r.corrupted;
    handled += r.clean + r.recovered + r.contained;
    for (const faultlib::PointStats& p : r.points) fault_fires += p.fires;
  }
  const double containment_pct =
      total == 0
          ? 0.0
          : 100.0 * static_cast<double>(handled) / static_cast<double>(total);

  char buffer[512];
  std::string json = "{\n";
  json += "  \"bench\": \"chaos_soak\",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n";
  json += "  \"workers\": " + std::to_string(workers) + ",\n";
  json += "  \"queries\": " + std::to_string(total) + ",\n";
  json += "  \"fault_fires\": " + std::to_string(fault_fires) + ",\n";
  std::snprintf(buffer, sizeof(buffer),
                "  \"containment_pct\": %.1f,\n  \"corrupted\": %lld,\n",
                containment_pct, static_cast<long long>(corrupted));
  json += buffer;
  json += "  \"schedules\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScheduleResult& r = results[i];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"schedule\": \"%s\", \"queries\": %lld, \"clean\": %lld, "
        "\"recovered\": %lld, \"contained\": %lld, \"corrupted\": %lld, "
        "\"retries\": %lld, \"fallbacks\": %lld, \"infer_faults\": %lld, "
        "\"breaker\": {\"trips\": %lld, \"recoveries\": %lld, "
        "\"short_circuits\": %lld}, \"wall_ms\": %.1f,\n",
        r.name.c_str(), static_cast<long long>(r.queries),
        static_cast<long long>(r.clean), static_cast<long long>(r.recovered),
        static_cast<long long>(r.contained),
        static_cast<long long>(r.corrupted), static_cast<long long>(r.retries),
        static_cast<long long>(r.fallbacks),
        static_cast<long long>(r.infer_faults),
        static_cast<long long>(r.breaker_trips),
        static_cast<long long>(r.breaker_recoveries),
        static_cast<long long>(r.breaker_short_circuits), r.wall_ms);
    json += buffer;
    std::snprintf(buffer, sizeof(buffer),
                  "     \"fallback_rate\": %.4f, \"latency_virtual_ns\": "
                  "{\"p50\": %lld, \"p95\": %lld, \"p99\": %lld},\n",
                  r.queries == 0 ? 0.0
                                 : static_cast<double>(r.fallbacks) /
                                       static_cast<double>(r.queries),
                  static_cast<long long>(r.latency_p50_ns),
                  static_cast<long long>(r.latency_p95_ns),
                  static_cast<long long>(r.latency_p99_ns));
    json += buffer;
    json += "     \"fault_points\": [";
    for (size_t p = 0; p < r.points.size(); ++p) {
      const faultlib::PointStats& point = r.points[p];
      std::snprintf(buffer, sizeof(buffer),
                    "{\"point\": \"%s\", \"kind\": \"%s\", \"hits\": %lld, "
                    "\"fires\": %lld}%s",
                    point.point.c_str(), faultlib::FaultKindName(point.kind),
                    static_cast<long long>(point.hits),
                    static_cast<long long>(point.fires),
                    p + 1 < r.points.size() ? ", " : "");
      json += buffer;
    }
    json += "]}";
    json += i + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  if (!bench::WriteDocument(argc > 1 ? argv[1] : nullptr, json)) return 1;

  const bool pass = corrupted == 0 && handled == total && total > 0;
  std::fprintf(stderr, "chaos_soak: %lld/%lld handled (%.1f%%), %s\n",
               static_cast<long long>(handled), static_cast<long long>(total),
               containment_pct, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
