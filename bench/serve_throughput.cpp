// Throughput/latency benchmark for serve::QueryServer: drives the JOB-lite
// workload through each routing arm (pglite, lqo, lqo with a tight deadline
// over deliberately degraded plans, shadow) for several epochs, with the
// plan cache on and off, publishing a model mid-load on the lqo arm. Emits
// one JSON document (stdout, or the file given as argv[1]) with wall-clock
// QPS, virtual-latency percentiles, cache hit rate, fallback rate and a
// 1-vs-N-worker determinism verdict per arm — see BENCH_serve.json at the
// repo root for a recorded run.
//
// Wall-clock QPS measures the machine; the virtual-time columns and the
// determinism verdicts are machine-independent.
//
// --sql adds the SQL-route arms: queries submitted as rendered SQL text
// (QueryServer::SubmitSql), whose plan cache keys on the normalized
// template (constants stripped). The varied-literal pair is the point:
// fresh literals every epoch leave the template cache hot (sql_varied) but
// make per-literal keys miss every time (struct_varied) — the hit-rate gap
// between those two arms is the template-keying win, and SQL QPS must stay
// within noise of the struct path once the cache is warm.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "loadgen/open_loop.h"
#include "lqo/native_passthrough.h"
#include "serve/query_server.h"
#include "util/statistics.h"

namespace {

using namespace lqolab;
using serve::QueryServer;
using serve::RouteMode;
using serve::ServedQuery;
using serve::ServerOptions;

/// A deliberately bad model for the fallback arm: degrades every operator
/// of the native plan to the slowest choice, so execution blows through the
/// arm's tight deadline and exercises the timeout-fallback protocol.
class SlowPlanOptimizer : public lqo::NativePassthroughOptimizer {
 public:
  std::string name() const override { return "slow_plan"; }

  lqo::Prediction Plan(const query::Query& q,
                       engine::Database* db) override {
    lqo::Prediction prediction = NativePassthroughOptimizer::Plan(q, db);
    for (optimizer::PlanNode& node : prediction.plan.nodes) {
      if (node.type == optimizer::PlanNode::Type::kScan) {
        node.scan_type = optimizer::ScanType::kSeq;
        node.index_column = catalog::kInvalidColumn;
      } else {
        node.algo = optimizer::JoinAlgo::kNestLoop;
      }
    }
    return prediction;
  }
};

struct ArmSpec {
  std::string name;
  RouteMode route;
  bool plan_cache;
  util::VirtualNanos lqo_deadline_ns;
  bool slow_model;     // publish SlowPlanOptimizer instead of passthrough
  bool swap_mid_load;  // publish a fresh model after the first epoch
  bool no_breaker = false;  // disable the circuit breaker for this arm
  bool sql = false;             // submit rendered SQL text via SubmitSql
  bool vary_literals = false;   // fresh literals every epoch (template
                                // cache still hits; per-literal keys miss)
};

/// Epoch > 0: nudges every closed range bound so the literal text differs
/// while the normalized template (and the join graph) stays identical.
/// Open-range sentinels (|v| >= 2e9) and non-range predicates are left
/// alone, so the query stays in the grammar the SQL frontend round-trips.
query::Query VaryLiterals(query::Query q, int epoch) {
  if (epoch == 0) return q;
  constexpr int32_t kSentinel = 1'900'000'000;
  for (query::Predicate& p : q.predicates) {
    if (p.kind != query::Predicate::Kind::kRange) continue;
    if (p.int_values.size() != 2) continue;
    if (p.int_values[1] < kSentinel &&
        p.int_values[1] < std::numeric_limits<int32_t>::max() - epoch) {
      p.int_values[1] += epoch;  // widen: never inverts the range
    } else if (p.int_values[0] > -kSentinel &&
               p.int_values[0] >
                   std::numeric_limits<int32_t>::min() + epoch + 1) {
      p.int_values[0] -= epoch;
    }
  }
  return q;
}

struct ArmResult {
  ArmSpec spec;
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  double avg_planning_ns = 0.0;
  double cache_hit_rate = 0.0;
  double fallback_rate = 0.0;
  int64_t queries = 0;
  int64_t fallbacks = 0;
  uint64_t model_version = 0;
  bool deterministic = false;
};

std::vector<ServedQuery> DriveArm(engine::Database* db,
                                  const std::vector<query::Query>& workload,
                                  const ArmSpec& spec, int epochs,
                                  int32_t workers, double* wall_ms) {
  ServerOptions options;
  options.workers = workers;
  options.route = spec.route;
  if (!spec.plan_cache) options.cache.capacity_per_shard = 0;
  options.lqo_deadline_ns = spec.lqo_deadline_ns;
  if (spec.no_breaker) {
    // Which queries a tripped breaker short-circuits depends on the order
    // worker threads report their failures, so a breaker-guarded arm is
    // not comparable query-for-query against the single-worker replay.
    // Arms that measure the fallback protocol itself keep the breaker out
    // of the way (chaos_soak covers breaker behavior separately).
    options.breaker.failure_threshold = std::numeric_limits<int32_t>::max();
  }
  QueryServer server(db, options);
  if (spec.route != RouteMode::kPglite) {
    if (spec.slow_model) {
      server.PublishModel(std::make_shared<SlowPlanOptimizer>());
    } else {
      server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());
    }
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  std::vector<std::future<ServedQuery>> futures;
  futures.reserve(workload.size() * static_cast<size_t>(epochs));
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (const query::Query& q : workload) {
      if (spec.sql) {
        const query::Query varied =
            spec.vary_literals ? VaryLiterals(q, epoch) : q;
        futures.push_back(
            server.SubmitSql(varied.ToSql(db->schema()), varied.id));
      } else if (spec.vary_literals) {
        futures.push_back(server.Submit(VaryLiterals(q, epoch)));
      } else {
        futures.push_back(server.Submit(q));
      }
    }
    if (spec.swap_mid_load && epoch == 0) {
      // Hot swap while the first epoch is still in flight: in-flight
      // queries finish on their snapshot, later ones re-plan (and the
      // version change invalidates every cached LQO plan).
      server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());
    }
  }
  std::vector<ServedQuery> served;
  served.reserve(futures.size());
  for (auto& future : futures) served.push_back(future.get());
  server.Drain();
  *wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                 .count();
  return served;
}

/// Scheduling-independent fields only: plans and replayed executions must
/// match query-for-query across worker counts; cache hits and planning
/// times may legitimately differ (they depend on processing order).
///
/// `compare_plans` is off for the SQL arms: same-template variants share a
/// normalized-template cache key, so the generic plan a variant is served
/// depends on which variant planned first — scheduling-dependent by design.
/// The ANSWER must not be: result rows, timeouts and fallbacks still have
/// to match query-for-query against the single-worker replay.
bool SameServedResults(const std::vector<ServedQuery>& a,
                       const std::vector<ServedQuery>& b, bool compare_plans) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].query_id != b[i].query_id ||
        a[i].result_rows != b[i].result_rows ||
        a[i].timed_out != b[i].timed_out || a[i].fell_back != b[i].fell_back) {
      return false;
    }
    if (compare_plans && (a[i].execution_ns != b[i].execution_ns ||
                          a[i].plan != b[i].plan)) {
      return false;
    }
  }
  return true;
}

ArmResult RunArm(engine::Database* db,
                 const std::vector<query::Query>& workload,
                 const ArmSpec& spec, int epochs, int32_t workers) {
  ArmResult result;
  result.spec = spec;
  const std::vector<ServedQuery> served =
      DriveArm(db, workload, spec, epochs, workers, &result.wall_ms);

  std::vector<double> latencies;
  latencies.reserve(served.size());
  int64_t cache_hits = 0;
  double planning_total = 0.0;
  for (const ServedQuery& s : served) {
    latencies.push_back(static_cast<double>(s.latency_ns()));
    planning_total += static_cast<double>(s.planning_ns);
    if (s.cache_hit) ++cache_hits;
    if (s.fell_back) ++result.fallbacks;
  }
  result.queries = static_cast<int64_t>(served.size());
  result.qps = static_cast<double>(served.size()) / (result.wall_ms / 1e3);
  result.p50_ns = util::Percentile(latencies, 50.0);
  result.p95_ns = util::Percentile(latencies, 95.0);
  result.p99_ns = util::Percentile(latencies, 99.0);
  result.avg_planning_ns = planning_total / static_cast<double>(served.size());
  result.cache_hit_rate =
      static_cast<double>(cache_hits) / static_cast<double>(served.size());
  result.fallback_rate = static_cast<double>(result.fallbacks) /
                         static_cast<double>(served.size());

  // Determinism: replay the whole arm single-threaded and compare
  // query-for-query.
  double serial_wall_ms = 0.0;
  const std::vector<ServedQuery> serial =
      DriveArm(db, workload, spec, epochs, /*workers=*/1, &serial_wall_ms);
  result.deterministic =
      SameServedResults(served, serial, /*compare_plans=*/!spec.sql);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lqolab;

  auto db = bench::MakeDatabase(0.25);
  const auto workload = query::LoadWorkload("job", db->schema());
  const int epochs = 3;
  // At least 4 workers even on a single-core box: the determinism check
  // compares against a 1-worker replay, which only means something when the
  // primary run actually interleaves.
  const int32_t workers =
      bench::EnvParallelism() > 0
          ? bench::EnvParallelism()
          : std::max<int32_t>(4, util::ThreadPool::DefaultParallelism());

  // 50 us of virtual time: far below any cold multi-join execution, so the
  // degraded plans of the fallback arm reliably hit the deadline.
  constexpr util::VirtualNanos kTightDeadlineNs = 50'000;

  bool sql_mode = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--sql") {
      sql_mode = true;
    } else {
      out_path = argv[i];
    }
  }

  std::vector<ArmSpec> arms = {
      {"pglite", RouteMode::kPglite, true, 0, false, false},
      {"pglite_cache_off", RouteMode::kPglite, false, 0, false, false},
      {"lqo", RouteMode::kLqo, true, 0, false, true},
      {"lqo_tight_deadline", RouteMode::kLqo, true, kTightDeadlineNs, true,
       false, /*no_breaker=*/true},
      {"shadow", RouteMode::kShadow, true, 0, false, false},
  };
  if (sql_mode) {
    ArmSpec sql_pglite{"sql_pglite", RouteMode::kPglite, true, 0, false,
                       false};
    sql_pglite.sql = true;
    arms.push_back(sql_pglite);
    // The template-vs-literal pair: identical varied workloads, one keyed
    // on normalized templates (SQL route), one on per-literal fingerprints
    // (struct route).
    ArmSpec sql_varied = sql_pglite;
    sql_varied.name = "sql_pglite_varied";
    sql_varied.vary_literals = true;
    arms.push_back(sql_varied);
    ArmSpec struct_varied{"struct_pglite_varied", RouteMode::kPglite, true, 0,
                          false, false};
    struct_varied.vary_literals = true;
    arms.push_back(struct_varied);
  }

  std::fprintf(stderr,
               "serving %zu queries x %d epochs per arm (%d workers)...\n",
               workload.size(), epochs, workers);
  std::vector<ArmResult> results;
  for (const ArmSpec& spec : arms) {
    results.push_back(RunArm(db.get(), workload, spec, epochs, workers));
    const ArmResult& r = results.back();
    std::fprintf(stderr,
                 "  %-18s qps=%7.0f p50=%.2fms hit=%4.0f%% fallback=%4.0f%% "
                 "%s\n",
                 r.spec.name.c_str(), r.qps, r.p50_ns / 1e6,
                 r.cache_hit_rate * 100.0, r.fallback_rate * 100.0,
                 r.deterministic ? "deterministic" : "[MISMATCH]");
  }

  // Open-loop tail-latency-vs-offered-load sweep (docs/overload.md): the
  // closed-loop arms above measure service capacity; this measures what a
  // non-blocking arrival process observes below and above it. Deadline-
  // aware shedding is on, so the overloaded point reports load-control
  // behaviour (goodput held, misses shed) rather than queue collapse. The
  // deep sweep with the shedding ablation lives in bench/overload_soak.
  struct OpenLoopPoint {
    double multiple = 0.0;
    lqolab::loadgen::OpenLoopResult result;
  };
  std::vector<OpenLoopPoint> open_loop;
  {
    loadgen::OpenLoopRunner runner(db.get(), workload);
    for (const double multiple : {0.5, 1.5}) {
      loadgen::OpenLoopOptions options;
      options.offered_multiple = multiple;
      options.virtual_workers = 4;
      options.target_arrivals = 300;
      options.deadline_service_multiple = 8.0;
      options.shed_on_predicted_miss = true;
      options.seed = bench::kSeed;
      OpenLoopPoint point;
      point.multiple = multiple;
      point.result = runner.Run(options);
      const loadgen::TenantSlo& agg = point.result.report.aggregate;
      std::fprintf(stderr,
                   "  open_loop x%.1f: goodput=%.1fqps p99=%.2fms shed=%lld\n",
                   multiple, agg.goodput_qps, agg.p99_total_ms,
                   static_cast<long long>(agg.shed));
      open_loop.push_back(std::move(point));
    }
  }

  std::string json = "{\n";
  json += "  \"bench\": \"serve_throughput\",\n";
  json += std::string("  \"sql_mode\": ") + (sql_mode ? "true" : "false") +
          ",\n";
  json += "  \"queries\": " + std::to_string(workload.size()) + ",\n";
  json += "  \"epochs\": " + std::to_string(epochs) + ",\n";
  json += "  \"workers\": " + std::to_string(workers) + ",\n";
  json += "  \"arms\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ArmResult& r = results[i];
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"route\": \"%s\", \"plan_cache\": %s, \"sql\": %s, "
        "\"vary_literals\": %s, \"queries\": %lld, "
        "\"wall_ms\": %.1f, \"qps\": %.0f, "
        "\"latency_virtual_ns\": {\"p50\": %.0f, \"p95\": %.0f, "
        "\"p99\": %.0f}, \"avg_planning_ns\": %.0f, "
        "\"cache_hit_rate\": %.4f, \"fallback_rate\": %.4f, "
        "\"fallbacks\": %lld, \"deterministic\": %s}%s\n",
        r.spec.name.c_str(), r.spec.plan_cache ? "true" : "false",
        r.spec.sql ? "true" : "false",
        r.spec.vary_literals ? "true" : "false",
        static_cast<long long>(r.queries), r.wall_ms, r.qps, r.p50_ns,
        r.p95_ns, r.p99_ns, r.avg_planning_ns, r.cache_hit_rate,
        r.fallback_rate, static_cast<long long>(r.fallbacks),
        r.deterministic ? "true" : "false",
        i + 1 < results.size() ? "," : "");
    json += buffer;
  }
  json += "  ],\n";
  json += "  \"open_loop\": [\n";
  for (size_t i = 0; i < open_loop.size(); ++i) {
    const OpenLoopPoint& p = open_loop[i];
    const loadgen::TenantSlo& agg = p.result.report.aggregate;
    char buffer[384];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"offered_multiple\": %.2f, \"arrivals\": %lld, "
        "\"offered_qps\": %.1f, \"capacity_qps\": %.1f, \"ok\": %lld, "
        "\"shed\": %lld, \"deadline_missed\": %lld, \"goodput_qps\": %.1f, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p99_queue_ms\": %.3f}%s\n",
        p.multiple, static_cast<long long>(p.result.arrivals),
        p.result.offered_qps, p.result.capacity_qps,
        static_cast<long long>(agg.ok), static_cast<long long>(agg.shed),
        static_cast<long long>(agg.deadline_missed), agg.goodput_qps,
        agg.p50_total_ms, agg.p99_total_ms, agg.p99_queue_ms,
        i + 1 < open_loop.size() ? "," : "");
    json += buffer;
  }
  json += "  ]\n}\n";

  if (!bench::WriteDocument(out_path, json)) return 1;

  bool ok = true;
  for (const ArmResult& r : results) ok &= r.deterministic;
  // The warm cache must deliver a measurable planning-time reduction, and
  // the tight-deadline arm must actually fall back.
  ok &= results[0].avg_planning_ns < results[1].avg_planning_ns;
  ok &= results[3].fallback_rate > 0.0;
  // Open-loop sanity: both points completed work, and the overloaded point
  // exercised the deadline-aware shedder harder than the light one.
  ok &= open_loop[0].result.report.aggregate.ok > 0;
  ok &= open_loop[1].result.report.aggregate.ok > 0;
  ok &= open_loop[1].result.report.aggregate.shed >
        open_loop[0].result.report.aggregate.shed;
  if (sql_mode) {
    const ArmResult& sql_pglite = results[5];
    const ArmResult& sql_varied = results[6];
    const ArmResult& struct_varied = results[7];
    // Warm-template SQL throughput within noise of the struct path (the
    // parse+bind admission cost must not dominate), and template keying
    // must beat per-literal keying on the varied workload by a wide margin.
    ok &= sql_pglite.qps > 0.5 * results[0].qps;
    ok &= sql_varied.cache_hit_rate > struct_varied.cache_hit_rate + 0.3;
    if (!ok) {
      std::fprintf(stderr,
                   "sql-mode assertion failed: sql qps=%.0f struct qps=%.0f "
                   "sql_varied hit=%.2f struct_varied hit=%.2f\n",
                   sql_pglite.qps, results[0].qps, sql_varied.cache_hit_rate,
                   struct_varied.cache_hit_rate);
    }
  }
  return ok ? 0 : 1;
}
