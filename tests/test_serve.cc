// Unit tests for the serve/ subsystem: plan cache, cache keying, the
// QueryServer's routing modes, the timeout-fallback protocol (paper §7.1's
// statement-timeout story applied to learned plans), deterministic replay
// across worker counts, and model hot swap.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "faultlib/faultlib.h"
#include "lqo/native_passthrough.h"
#include "obs/metrics.h"
#include "query/sql_workload.h"
#include "serve/hot_swap.h"
#include "serve/plan_cache.h"
#include "serve/query_server.h"
#include "util/status.h"

namespace lqolab {
namespace {

using serve::CachedPlan;
using serve::PlanCache;
using serve::PlanCacheOptions;
using serve::QueryServer;
using serve::RouteMode;
using serve::ServedQuery;
using serve::ServerOptions;

/// One small database shared by every test in this binary (immutable from
/// the tests' perspective: servers execute on worker replicas only).
engine::Database* SharedDb() {
  static std::unique_ptr<engine::Database> db = [] {
    engine::Database::Options options;
    options.profile = datagen::ScaleProfile::Small();
    options.seed = 42;
    return engine::Database::CreateImdb(options);
  }();
  return db.get();
}

const std::vector<query::Query>& Workload() {
  static const std::vector<query::Query> workload =
      query::LoadWorkload("job", SharedDb()->schema());
  return workload;
}

/// The canonical replay outcome the server must reproduce for occurrence 0
/// of `q`.
engine::QueryRun ExpectedRun(const query::Query& q, uint64_t salt = 0) {
  const auto replica = SharedDb()->CloneContextForWorker();
  const auto planned = replica->PlanQuery(q);
  replica->BeginQueryReplay(SharedDb()->seed(), q, salt);
  return replica->ExecutePlan(q, planned.plan, planned.planning_ns);
}

CachedPlan MarkedPlan(double marker) {
  CachedPlan plan;
  plan.estimated_cost = marker;
  return plan;
}

TEST(PlanCache, InsertLookupEvict) {
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);

  PlanCacheOptions options;
  options.shards = 1;
  options.capacity_per_shard = 2;
  PlanCache cache(options);
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.capacity(), 2);

  EXPECT_EQ(cache.Lookup(1), nullptr);
  cache.Insert(1, std::make_shared<const CachedPlan>(MarkedPlan(1.0)));
  cache.Insert(2, std::make_shared<const CachedPlan>(MarkedPlan(2.0)));
  const auto hit = cache.Lookup(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->estimated_cost, 1.0);

  // Key 2 is now least recent; inserting 3 evicts it.
  cache.Insert(3, std::make_shared<const CachedPlan>(MarkedPlan(3.0)));
  EXPECT_EQ(cache.Lookup(2), nullptr);
  ASSERT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.evictions(), 1);

  EXPECT_EQ(metrics.Get(obs::Counter::kPlanCacheHits), 2);
  EXPECT_EQ(metrics.Get(obs::Counter::kPlanCacheMisses), 2);
  EXPECT_EQ(metrics.Get(obs::Counter::kPlanCacheEvictions), 1);
}

TEST(PlanCache, ReinsertReplacesPayloadWithoutEviction) {
  PlanCacheOptions options;
  options.shards = 1;
  options.capacity_per_shard = 2;
  PlanCache cache(options);
  cache.Insert(7, std::make_shared<const CachedPlan>(MarkedPlan(1.0)));
  cache.Insert(7, std::make_shared<const CachedPlan>(MarkedPlan(2.0)));
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.Lookup(7)->estimated_cost, 2.0);
}

TEST(PlanCache, ClearCountsDroppedPlansAsEvictions) {
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  PlanCacheOptions options;
  options.shards = 2;
  options.capacity_per_shard = 4;
  PlanCache cache(options);
  for (uint64_t key = 1; key <= 5; ++key) {
    cache.Insert(key, std::make_shared<const CachedPlan>(MarkedPlan(1.0)));
  }
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.evictions(), 5);
  EXPECT_EQ(metrics.Get(obs::Counter::kPlanCacheEvictions), 5);
}

TEST(PlanCache, DisabledCacheNeverStores) {
  PlanCacheOptions options;
  options.capacity_per_shard = 0;
  PlanCache cache(options);
  EXPECT_FALSE(cache.enabled());
  cache.Insert(1, std::make_shared<const CachedPlan>(MarkedPlan(1.0)));
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.size(), 0);
}

TEST(PlanCacheKey, SeparatesQueryConfigAndModelVersion) {
  const query::Query& a = Workload()[0];
  const query::Query& b = Workload()[1];
  const engine::DbConfig config = engine::DbConfig::OurFramework();

  EXPECT_EQ(serve::PlanCacheKey(a, config), serve::PlanCacheKey(a, config));
  EXPECT_NE(serve::PlanCacheKey(a, config), serve::PlanCacheKey(b, config));
  EXPECT_NE(serve::PlanCacheKey(a, config, 1), serve::PlanCacheKey(a, config, 2));

  engine::DbConfig no_hash = config;
  no_hash.enable_hashjoin = false;
  EXPECT_NE(serve::PlanCacheKey(a, config), serve::PlanCacheKey(a, no_hash));

  // The display name is not part of the identity.
  engine::DbConfig renamed = config;
  renamed.name = "renamed";
  EXPECT_EQ(serve::PlanCacheKey(a, config), serve::PlanCacheKey(a, renamed));
}

TEST(QueryServer, PgliteRouteMatchesCanonicalReplay) {
  ServerOptions options;
  options.workers = 2;
  options.route = RouteMode::kPglite;
  QueryServer server(SharedDb(), options);

  for (size_t i = 0; i < 8; ++i) {
    const query::Query& q = Workload()[i * 5];
    const ServedQuery served = server.Submit(q).get();
    const engine::QueryRun expected = ExpectedRun(q);
    EXPECT_EQ(served.query_id, q.id);
    EXPECT_EQ(served.result_rows, expected.result_rows) << q.id;
    EXPECT_EQ(served.execution_ns, expected.execution_ns) << q.id;
    EXPECT_EQ(served.timed_out, expected.timed_out) << q.id;
    EXPECT_FALSE(served.fell_back);
    EXPECT_FALSE(served.cache_hit);
  }
  server.Drain();
  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeQueries), 8);
  EXPECT_EQ(metrics.Get(obs::Counter::kServeFallbacks), 0);
  EXPECT_EQ(metrics.Get(obs::Counter::kPlanCacheMisses), 8);
}

TEST(QueryServer, CacheHitReturnsIdenticalPlanWithReducedPlanningTime) {
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kPglite;
  QueryServer server(SharedDb(), options);

  const query::Query& q = Workload()[10];
  const ServedQuery cold = server.Submit(q).get();
  const ServedQuery warm = server.Submit(q).get();

  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  // Byte-identical plan, cheaper planning: the whole point of the cache.
  EXPECT_EQ(warm.plan, cold.plan);
  EXPECT_EQ(warm.planning_ns, serve::kPlanCacheHitNs);
  EXPECT_LT(warm.planning_ns, cold.planning_ns);
  EXPECT_EQ(warm.result_rows, cold.result_rows);

  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kPlanCacheHits), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kPlanCacheMisses), 1);
}

/// A deliberately bad learned optimizer: takes the native plan and degrades
/// every operator to the slowest choice (sequential scans, materialized
/// nested loops). Execution then blows well past a tight deadline in the
/// virtual clock — the injected "runaway learned plan".
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

TEST(QueryServer, TimeoutFallbackReturnsPgliteResult) {
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kLqo;
  // 50 us of virtual time: far below any cold multi-join execution, so the
  // degraded plan is guaranteed to hit the deadline.
  options.lqo_deadline_ns = 50'000;
  QueryServer server(SharedDb(), options);
  server.PublishModel(std::make_shared<SlowPlanOptimizer>());

  const query::Query& q = Workload()[20];
  const ServedQuery served = server.Submit(q).get();

  // The fallback executes the pglite plan; its replay stream is salted, so
  // compare against the canonical fallback replay.
  const engine::QueryRun expected = ExpectedRun(q, /*salt=*/1ull << 63);
  EXPECT_TRUE(served.fell_back);
  EXPECT_FALSE(served.timed_out);
  EXPECT_EQ(served.result_rows, expected.result_rows);
  EXPECT_EQ(served.execution_ns, expected.execution_ns);
  // The aborted attempt burned exactly the deadline.
  EXPECT_EQ(served.wasted_ns, options.lqo_deadline_ns);
  EXPECT_GE(served.latency_ns(),
            served.execution_ns + options.lqo_deadline_ns);

  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeFallbacks), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kServeQueries), 1);
}

/// Workload()[109] is the one JOB-lite query whose fully degraded plan
/// (all-seq-scan, all-nest-loop) runs ~3x slower than the native plan
/// (~7.2ms vs ~2.4ms of virtual time, cold): a 5ms deadline admits every
/// healthy plan and rejects every degraded one, with margin on both sides.
constexpr size_t kDegradableQuery = 109;
constexpr util::VirtualNanos kDiscriminatingDeadlineNs = 5'000'000;

TEST(QueryServer, InjectedSlowPlanFaultTriggersTimeoutFallback) {
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kLqo;
  options.lqo_deadline_ns = kDiscriminatingDeadlineNs;
  QueryServer server(SharedDb(), options);
  // A healthy model this time: the runaway plan comes from faultlib
  // poisoning a single inference, not from the model itself.
  server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());

  faultlib::FaultPlan plan;
  faultlib::FaultRule poison;
  poison.point = "lqo.infer";
  poison.kind = faultlib::FaultKind::kPoison;
  poison.every_nth = 1;
  poison.max_fires = 1;
  plan.Add(poison);
  faultlib::FaultInjector injector(plan);

  const query::Query& q = Workload()[kDegradableQuery];
  ServedQuery served;
  {
    faultlib::ScopedFaultInjection inject(&injector);
    served = server.Submit(q).get();
  }
  // The poisoned plan blew the deadline; the pglite plan answered.
  const engine::QueryRun expected = ExpectedRun(q, /*salt=*/1ull << 63);
  EXPECT_TRUE(served.fell_back);
  EXPECT_EQ(served.result_rows, expected.result_rows);
  EXPECT_EQ(served.wasted_ns, options.lqo_deadline_ns);

  // The poison was not cached: the next admission of the same query serves
  // the clean model plan with no fallback.
  const ServedQuery clean = server.Submit(q).get();
  EXPECT_FALSE(clean.fell_back);
  EXPECT_EQ(clean.result_rows, ExpectedRun(q).result_rows);

  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeFallbacks), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kFaultInjectedPoison), 1);
}

TEST(QueryServer, InferenceFaultServesNativelyAndIsCounted) {
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kLqo;
  QueryServer server(SharedDb(), options);
  server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());

  faultlib::FaultPlan plan;
  faultlib::FaultRule rule;
  rule.point = "lqo.infer";
  rule.kind = faultlib::FaultKind::kError;
  rule.every_nth = 1;
  rule.max_fires = 1;
  plan.Add(rule);
  faultlib::FaultInjector injector(plan);
  faultlib::ScopedFaultInjection inject(&injector);

  const query::Query& q = Workload()[0];
  const ServedQuery served = server.Submit(q).get();
  // Inference failed, so the native planner answered — correct result,
  // no fallback (nothing was executing under the LQO deadline).
  EXPECT_TRUE(served.infer_fault);
  EXPECT_TRUE(served.status.ok());
  EXPECT_FALSE(served.fell_back);
  EXPECT_EQ(served.result_rows, ExpectedRun(q).result_rows);

  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeInferFaults), 1);
}

TEST(QueryServer, CircuitBreakerTripsAndRecovers) {
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kLqo;
  options.lqo_deadline_ns = kDiscriminatingDeadlineNs;
  options.cache.capacity_per_shard = 0;  // Plan (and fail) every admission.
  options.breaker.failure_threshold = 2;
  options.breaker.open_requests = 2;
  options.breaker.probe_successes = 1;
  QueryServer server(SharedDb(), options);
  server.PublishModel(std::make_shared<SlowPlanOptimizer>());

  const query::Query& q = Workload()[kDegradableQuery];
  // Two straight timeout-fallbacks trip the breaker.
  for (int i = 0; i < 2; ++i) {
    const ServedQuery served = server.Submit(q).get();
    EXPECT_TRUE(served.fell_back);
    EXPECT_FALSE(served.breaker_short_circuit);
  }
  EXPECT_EQ(server.breaker().state(), serve::CircuitBreaker::State::kOpen);
  EXPECT_EQ(server.breaker().trips(), 1);

  // The model is fixed, but the breaker is open: the next admission
  // short-circuits straight to the pglite plan (no LQO attempt, no
  // deadline burned).
  server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());
  const ServedQuery shorted = server.Submit(q).get();
  EXPECT_TRUE(shorted.breaker_short_circuit);
  EXPECT_FALSE(shorted.fell_back);
  EXPECT_EQ(shorted.wasted_ns, 0);
  EXPECT_EQ(shorted.result_rows, ExpectedRun(q).result_rows);

  // The second open-state arrival half-opens the breaker and runs as the
  // probe; the healthy model succeeds, closing the circuit again.
  const ServedQuery probe = server.Submit(q).get();
  EXPECT_FALSE(probe.breaker_short_circuit);
  EXPECT_FALSE(probe.fell_back);
  EXPECT_EQ(server.breaker().state(), serve::CircuitBreaker::State::kClosed);
  EXPECT_EQ(server.breaker().recoveries(), 1);

  // Closed again: traffic flows through the LQO route normally.
  const ServedQuery after = server.Submit(q).get();
  EXPECT_FALSE(after.breaker_short_circuit);
  EXPECT_FALSE(after.fell_back);

  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeBreakerTrips), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kServeBreakerShortCircuits), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kServeBreakerProbes), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kServeBreakerRecoveries), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kServeFallbacks), 2);
}

TEST(QueryServer, TripLqoBreakerShortCircuitsOutOfBand) {
  // The out-of-band trip (used by the cost-model drift detector) must open
  // the breaker without a request in flight, and tripping an already-open
  // breaker must be a no-op.
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kLqo;
  QueryServer server(SharedDb(), options);
  server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());

  EXPECT_EQ(server.breaker().state(), serve::CircuitBreaker::State::kClosed);
  server.TripLqoBreaker();
  EXPECT_EQ(server.breaker().state(), serve::CircuitBreaker::State::kOpen);
  EXPECT_EQ(server.breaker().trips(), 1);
  server.TripLqoBreaker();
  EXPECT_EQ(server.breaker().trips(), 1);

  const ServedQuery shorted = server.Submit(Workload()[3]).get();
  EXPECT_TRUE(shorted.breaker_short_circuit);
  EXPECT_EQ(shorted.result_rows, ExpectedRun(Workload()[3]).result_rows);
}

TEST(QueryServer, SubmitAfterShutdownResolvesAsShutdownStatus) {
  ServerOptions options;
  options.workers = 1;
  QueryServer server(SharedDb(), options);
  EXPECT_TRUE(server.Submit(Workload()[0]).get().status.ok());
  server.Shutdown();

  const ServedQuery refused = server.Submit(Workload()[1]).get();
  EXPECT_EQ(refused.status.code(), util::StatusCode::kShutdown);
  EXPECT_EQ(refused.result_rows, 0);

  const ServedQuery open_loop =
      server.SubmitAt(Workload()[2], serve::OpenLoopArrival{}).get();
  EXPECT_EQ(open_loop.status.code(), util::StatusCode::kShutdown);
  EXPECT_FALSE(open_loop.rejected);

  const ServedQuery sql =
      server.SubmitSql(Workload()[3].ToSql(SharedDb()->schema())).get();
  EXPECT_EQ(sql.status.code(), util::StatusCode::kShutdown);

  // One drop per entry point; none of them admitted anything.
  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeShutdownDropped), 3);
  EXPECT_EQ(metrics.Get(obs::Counter::kServeOpenLoopQueries), 0);
  EXPECT_EQ(metrics.Get(obs::Counter::kServeSqlQueries), 0);
  EXPECT_EQ(metrics.Get(obs::Counter::kServeQueries), 1);
}

TEST(QueryServer, GenerousDeadlineDoesNotFallBack) {
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kLqo;
  options.lqo_deadline_ns = 0;  // statement timeout only
  QueryServer server(SharedDb(), options);
  server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());

  const query::Query& q = Workload()[0];
  const ServedQuery served = server.Submit(q).get();
  EXPECT_FALSE(served.fell_back);
  EXPECT_FALSE(served.timed_out);
  EXPECT_EQ(served.result_rows, ExpectedRun(q).result_rows);
}

TEST(QueryServer, LqoRouteWithoutModelServesNatively) {
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kLqo;
  QueryServer server(SharedDb(), options);

  const query::Query& q = Workload()[3];
  const ServedQuery served = server.Submit(q).get();
  EXPECT_EQ(served.result_rows, ExpectedRun(q).result_rows);
  EXPECT_FALSE(served.fell_back);
  EXPECT_TRUE(served.shadow_plan.empty());
}

TEST(QueryServer, ShadowModeExecutesNativePlan) {
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kShadow;
  QueryServer server(SharedDb(), options);
  server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());

  const query::Query& q = Workload()[15];
  const ServedQuery served = server.Submit(q).get();
  const engine::QueryRun expected = ExpectedRun(q);
  EXPECT_EQ(served.result_rows, expected.result_rows);
  EXPECT_EQ(served.execution_ns, expected.execution_ns);
  // The passthrough model shadows the native planner, so the recorded
  // shadow plan equals the executed one.
  EXPECT_FALSE(served.shadow_plan.empty());
  EXPECT_EQ(served.shadow_plan, served.plan);
  EXPECT_FALSE(served.fell_back);
}

TEST(QueryServer, ResultsAreIdenticalForAnyWorkerCount) {
  std::vector<ServedQuery> baseline;
  for (const int32_t workers : {1, 4}) {
    ServerOptions options;
    options.workers = workers;
    options.route = RouteMode::kPglite;
    QueryServer server(SharedDb(), options);
    std::vector<std::future<ServedQuery>> futures;
    for (size_t i = 0; i < Workload().size(); i += 7) {
      futures.push_back(server.Submit(Workload()[i]));
    }
    std::vector<ServedQuery> results;
    for (auto& f : futures) results.push_back(f.get());
    if (workers == 1) {
      baseline = std::move(results);
      continue;
    }
    ASSERT_EQ(results.size(), baseline.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].query_id, baseline[i].query_id);
      EXPECT_EQ(results[i].result_rows, baseline[i].result_rows);
      EXPECT_EQ(results[i].execution_ns, baseline[i].execution_ns);
      EXPECT_EQ(results[i].timed_out, baseline[i].timed_out);
      EXPECT_EQ(results[i].plan, baseline[i].plan);
    }
  }
}

TEST(QueryServer, HotSwapInvalidatesLqoCachedPlans) {
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kLqo;
  QueryServer server(SharedDb(), options);

  obs::MetricsRegistry publisher_metrics;
  obs::MetricsScope scope(&publisher_metrics);

  EXPECT_EQ(server.model_version(), 0u);
  server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());
  EXPECT_EQ(server.model_version(), 1u);

  const query::Query& q = Workload()[5];
  EXPECT_FALSE(server.Submit(q).get().cache_hit);
  EXPECT_TRUE(server.Submit(q).get().cache_hit);

  // Publishing a new model changes the cache key: the next lookup misses
  // and re-plans through the new model.
  server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());
  EXPECT_EQ(server.model_version(), 2u);
  EXPECT_FALSE(server.Submit(q).get().cache_hit);

  EXPECT_EQ(publisher_metrics.Get(obs::Counter::kServeModelSwaps), 2);
  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeLqoPlanned), 2);
}

TEST(QueryServer, ModelSwapInvalidatesTemplateKeyedFallbackPlans) {
  // Regression: the fallback path used to cache its native plan under
  // model_version 0 regardless of which model's timeout produced it, so a
  // hot swap left the stale template-keyed fallback entry live and the new
  // model's fallback silently reused it. The fallback entry must be keyed
  // by the era of the model that triggered it.
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kLqo;
  // Every degraded plan blows this deadline, so every submission exercises
  // the fallback cache path.
  options.lqo_deadline_ns = 50'000;
  // Keep the breaker out of the picture: three straight fallbacks would
  // otherwise trip it and short-circuit the third submission.
  options.breaker.failure_threshold = 1 << 20;
  QueryServer server(SharedDb(), options);
  server.PublishModel(std::make_shared<SlowPlanOptimizer>());

  const query::Query& q = Workload()[20];
  const std::string sql = q.ToSql(SharedDb()->schema());

  const ServedQuery cold = server.SubmitSql(sql, q.id).get();
  EXPECT_TRUE(cold.fell_back);
  const ServedQuery warm = server.SubmitSql(sql, q.id).get();
  EXPECT_TRUE(warm.fell_back);
  {
    // Second submission hit both template entries: the LQO plan and the
    // fallback native plan.
    const obs::MetricsRegistry metrics = server.SnapshotMetrics();
    EXPECT_EQ(metrics.Get(obs::Counter::kPlanCacheHits), 2);
    EXPECT_EQ(metrics.Get(obs::Counter::kPlanCacheMisses), 2);
  }

  // Swap models. The next submission must re-plan BOTH entries; before the
  // fix the fallback native plan hit the stale version-agnostic key and
  // hits would read 3.
  server.PublishModel(std::make_shared<SlowPlanOptimizer>());
  const ServedQuery swapped = server.SubmitSql(sql, q.id).get();
  EXPECT_TRUE(swapped.fell_back);
  EXPECT_EQ(swapped.result_rows, warm.result_rows);
  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kPlanCacheHits), 2);
  EXPECT_EQ(metrics.Get(obs::Counter::kPlanCacheMisses), 4);
}

TEST(HotSwapSlot, VersionsAreMonotonicAndSnapshotConsistent) {
  serve::HotSwapSlot<int> slot;
  EXPECT_EQ(slot.Acquire().value, nullptr);
  EXPECT_EQ(slot.version(), 0u);
  EXPECT_EQ(slot.Publish(std::make_shared<int>(7)), 1u);
  const auto snapshot = slot.Acquire();
  ASSERT_NE(snapshot.value, nullptr);
  EXPECT_EQ(*snapshot.value, 7);
  EXPECT_EQ(snapshot.version, 1u);
  EXPECT_EQ(slot.Publish(std::make_shared<int>(9)), 2u);
  // The old snapshot stays valid after the swap (shared ownership).
  EXPECT_EQ(*snapshot.value, 7);
  EXPECT_EQ(*slot.Acquire().value, 9);
}

}  // namespace
}  // namespace lqolab
