// Mid-query adaptive re-optimization (docs/overload.md): the differential
// contract (replans may only cost time, never change answers), the replan
// cap, spooled-intermediate reuse making abandoned attempts affordable,
// cardinality-pin seeding (QueryRun::replan_pins), and the serve path's
// plan feedback that lets repeat arrivals run the corrected plan straight
// through.

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "faultlib/faultlib.h"
#include "obs/metrics.h"
#include "query/sql_workload.h"
#include "serve/query_server.h"
#include "util/rng.h"

namespace lqolab {
namespace {

using serve::QueryServer;
using serve::RouteMode;
using serve::ServedQuery;
using serve::ServerOptions;

constexpr uint64_t kSeed = 42;

/// One small database shared by every test in this binary. Tests that need
/// a different DbConfig set it on an isolated worker replica, never here.
engine::Database* SharedDb() {
  static std::unique_ptr<engine::Database> db = [] {
    engine::Database::Options options;
    options.profile = datagen::ScaleProfile::Small();
    options.seed = kSeed;
    return engine::Database::CreateImdb(options);
  }();
  return db.get();
}

const std::vector<query::Query>& Workload() {
  static const std::vector<query::Query> workload =
      query::LoadWorkload("job", SharedDb()->schema());
  return workload;
}

/// The estimator-poison schedule of bench/overload_soak.cpp: catastrophic
/// 1e-4 underestimates on a seeded quarter of the (query, subplan) key
/// space, a pure function of the key — identical for every interleaving.
faultlib::FaultPlan PoisonPlan() {
  faultlib::FaultPlan plan;
  plan.name = "estimate_poison";
  plan.seed = util::MixSeed(kSeed, 0x9e150'7150ull);
  faultlib::FaultRule rule;
  rule.point = "stats.estimate";
  rule.kind = faultlib::FaultKind::kPoison;
  rule.probability = 0.25;
  rule.poison_scale = 1e-4;
  plan.Add(rule);
  return plan;
}

engine::DbConfig AdaptiveConfig(const engine::DbConfig& base) {
  engine::DbConfig adaptive = base;
  adaptive.adaptive_replan = true;
  adaptive.replan_qerror_threshold = 4.0;
  adaptive.replan_min_rows = 1;
  // The Small-profile tables make divergence ubiquitous under this poison
  // schedule; a roomier cap lets a useful fraction of the workload converge
  // below it (the "cleanly corrected" queries some tests need).
  adaptive.replan_max_per_query = 4;
  return adaptive;
}

/// One adaptive differential sample: the poisoned plan and the adaptive run
/// that executed it, plus the clean oracle answer to compare against.
struct AdaptiveSample {
  engine::QueryRun clean;
  optimizer::PhysicalPlan poisoned_plan;
  engine::QueryRun adaptive;
};

AdaptiveSample RunAdaptive(const query::Query& q,
                           faultlib::FaultInjector* poison) {
  AdaptiveSample sample;
  {
    const auto replica = SharedDb()->CloneContextForWorker();
    replica->BeginQueryReplay(kSeed, q);
    const auto planned = replica->PlanQuery(q);
    replica->BeginQueryReplay(kSeed, q);
    sample.clean = replica->ExecutePlan(q, planned.plan);
  }
  faultlib::ScopedFaultInjection inject(poison);
  const auto replica = SharedDb()->CloneContextForWorker();
  replica->SetConfig(AdaptiveConfig(replica->config()));
  replica->BeginQueryReplay(kSeed, q);
  sample.poisoned_plan = replica->PlanQuery(q).plan;
  replica->BeginQueryReplay(kSeed, q);
  sample.adaptive = replica->ExecutePlan(q, sample.poisoned_plan);
  return sample;
}

void ExpectSameRun(const engine::QueryRun& a, const engine::QueryRun& b,
                   const std::string& id) {
  EXPECT_EQ(a.status.code(), b.status.code()) << id;
  EXPECT_EQ(a.execution_ns, b.execution_ns) << id;
  EXPECT_EQ(a.timed_out, b.timed_out) << id;
  EXPECT_EQ(a.result_rows, b.result_rows) << id;
  EXPECT_EQ(a.pages_accessed, b.pages_accessed) << id;
  ASSERT_EQ(a.node_stats.size(), b.node_stats.size()) << id;
  for (size_t n = 0; n < a.node_stats.size(); ++n) {
    const exec::PlanNodeStats& x = a.node_stats[n];
    const exec::PlanNodeStats& y = b.node_stats[n];
    EXPECT_EQ(x.actual_rows, y.actual_rows) << id << " node " << n;
    EXPECT_EQ(x.loops, y.loops) << id << " node " << n;
    EXPECT_EQ(x.self_time_ns, y.self_time_ns) << id << " node " << n;
    EXPECT_EQ(x.shared_hits, y.shared_hits) << id << " node " << n;
    EXPECT_EQ(x.os_hits, y.os_hits) << id << " node " << n;
    EXPECT_EQ(x.disk_reads, y.disk_reads) << id << " node " << n;
  }
  EXPECT_EQ(a.replans, b.replans) << id;
  EXPECT_EQ(a.replan_wasted_ns, b.replan_wasted_ns) << id;
  EXPECT_EQ(a.replan_planning_ns, b.replan_planning_ns) << id;
}

// ExecutePlan's single-attempt path: with replanning on but a divergence
// trigger that can never fire, the armed monitor only observes, so every
// query's run is the adaptive-off run — same latency, rows and per-node
// statistics, zero replans.
TEST(AdaptiveReplan, UntriggerableMonitorMatchesReplanOff) {
  const auto off = SharedDb()->CloneContextForWorker();
  ASSERT_FALSE(off->config().adaptive_replan);
  const auto on = SharedDb()->CloneContextForWorker();
  engine::DbConfig adaptive = AdaptiveConfig(on->config());
  adaptive.replan_qerror_threshold = std::numeric_limits<double>::infinity();
  on->SetConfig(adaptive);
  for (const query::Query& q : Workload()) {
    const auto planned = off->PlanQuery(q);
    off->BeginQueryReplay(kSeed, q);
    const engine::QueryRun plain = off->ExecutePlan(q, planned.plan);
    on->BeginQueryReplay(kSeed, q);
    const engine::QueryRun single = on->ExecutePlan(q, planned.plan);
    ExpectSameRun(single, plain, q.id);
    EXPECT_EQ(single.replans, 0) << q.id;
    EXPECT_EQ(single.replanned_plan, nullptr) << q.id;
    EXPECT_EQ(single.replan_pins, nullptr) << q.id;
  }
}

// The acceptance contract: every JOB-lite query under the poisoned
// estimator returns byte-identical results whether the degraded plan runs
// straight through or adaptively — replans may only cost time. Also pins
// down the replan cap and the replan_* reporting fields.
TEST(AdaptiveReplan, DifferentialByteIdenticalUnderPoison) {
  faultlib::FaultInjector poison(PoisonPlan());
  const int32_t cap = AdaptiveConfig(SharedDb()->config()).replan_max_per_query;
  int64_t total_replans = 0;
  for (const query::Query& q : Workload()) {
    const AdaptiveSample sample = RunAdaptive(q, &poison);

    // The poisoned plan straight through (no monitor) for the same replay.
    engine::QueryRun straight;
    {
      faultlib::ScopedFaultInjection inject(&poison);
      const auto replica = SharedDb()->CloneContextForWorker();
      replica->BeginQueryReplay(kSeed, q);
      straight = replica->ExecutePlan(q, sample.poisoned_plan);
    }

    ASSERT_TRUE(sample.clean.status.ok()) << q.id;
    ASSERT_TRUE(straight.status.ok()) << q.id;
    ASSERT_TRUE(sample.adaptive.status.ok()) << q.id;
    EXPECT_EQ(straight.result_rows, sample.clean.result_rows) << q.id;
    EXPECT_EQ(sample.adaptive.result_rows, sample.clean.result_rows) << q.id;

    EXPECT_LE(sample.adaptive.replans, cap) << q.id;
    total_replans += sample.adaptive.replans;
    if (sample.adaptive.replans > 0) {
      EXPECT_NE(sample.adaptive.replanned_plan, nullptr) << q.id;
      EXPECT_NE(sample.adaptive.replan_pins, nullptr) << q.id;
      EXPECT_GT(sample.adaptive.replan_wasted_ns, 0) << q.id;
      EXPECT_GT(sample.adaptive.replan_planning_ns, 0) << q.id;
    } else {
      EXPECT_EQ(sample.adaptive.replanned_plan, nullptr) << q.id;
      EXPECT_EQ(sample.adaptive.replan_pins, nullptr) << q.id;
    }
  }
  // The schedule must actually exercise the machinery.
  EXPECT_GT(total_replans, 0);
}

// Spooled-intermediate reuse: the final adaptive attempt re-reads join
// results fully paid for by abandoned attempts instead of recomputing
// their subtrees, so it never costs more than executing the corrected plan
// from scratch — and across the workload it costs strictly less.
TEST(AdaptiveReplan, SpoolReuseMakesFinalAttemptCheaper) {
  faultlib::FaultInjector poison(PoisonPlan());
  int64_t replanning_queries = 0;
  double final_attempt_ns = 0.0;
  double from_scratch_ns = 0.0;
  for (const query::Query& q : Workload()) {
    const AdaptiveSample sample = RunAdaptive(q, &poison);
    if (sample.adaptive.replans == 0) continue;
    ++replanning_queries;

    // The corrected plan from scratch, same replay state and fault plan.
    engine::QueryRun scratch;
    {
      faultlib::ScopedFaultInjection inject(&poison);
      const auto replica = SharedDb()->CloneContextForWorker();
      replica->BeginQueryReplay(kSeed, q);
      scratch = replica->ExecutePlan(q, *sample.adaptive.replanned_plan);
    }
    ASSERT_TRUE(scratch.status.ok()) << q.id;
    EXPECT_EQ(scratch.result_rows, sample.adaptive.result_rows) << q.id;

    const auto final_attempt = sample.adaptive.execution_ns -
                               sample.adaptive.replan_wasted_ns -
                               sample.adaptive.replan_planning_ns;
    final_attempt_ns += static_cast<double>(final_attempt);
    from_scratch_ns += static_cast<double>(scratch.execution_ns);
  }
  ASSERT_GT(replanning_queries, 0);
  EXPECT_LT(final_attempt_ns, from_scratch_ns);
}

/// First workload query whose adaptive run replanned but did not hit the
/// cap (so its final attempt ran monitor-armed and clean — the corrected
/// plan provably holds under this poison schedule).
const query::Query* FindCleanlyCorrectedQuery(faultlib::FaultInjector* poison,
                                              AdaptiveSample* out) {
  const int32_t cap = AdaptiveConfig(SharedDb()->config()).replan_max_per_query;
  for (const query::Query& q : Workload()) {
    AdaptiveSample sample = RunAdaptive(q, poison);
    if (sample.adaptive.replans > 0 && sample.adaptive.replans < cap) {
      *out = std::move(sample);
      return &q;
    }
  }
  return nullptr;
}

// Seeding the accumulated pins back into a fresh adaptive run of the
// corrected plan suppresses every re-trigger: the run goes straight
// through, cheaper than the run that had to discover the truths.
TEST(AdaptiveReplan, SeededPinsSuppressReplans) {
  faultlib::FaultInjector poison(PoisonPlan());
  AdaptiveSample sample;
  const query::Query* q = FindCleanlyCorrectedQuery(&poison, &sample);
  ASSERT_NE(q, nullptr) << "poison schedule produced no cleanly corrected "
                           "query; retune the test";

  faultlib::ScopedFaultInjection inject(&poison);
  const auto replica = SharedDb()->CloneContextForWorker();
  replica->SetConfig(AdaptiveConfig(replica->config()));
  replica->BeginQueryReplay(kSeed, *q);
  const engine::QueryRun corrected = replica->ExecutePlan(
      *q, *sample.adaptive.replanned_plan, /*planning_ns=*/0, /*timeout_ns=*/0,
      /*deadline=*/nullptr, sample.adaptive.replan_pins.get());

  ASSERT_TRUE(corrected.status.ok());
  EXPECT_EQ(corrected.replans, 0);
  EXPECT_EQ(corrected.result_rows, sample.adaptive.result_rows);
  EXPECT_LT(corrected.execution_ns, sample.adaptive.execution_ns);
}

// `seed_pins` only seeds the replan loop: with adaptive replanning off it
// is ignored, so the seeded run equals the unseeded one.
TEST(AdaptiveReplan, SeedPinsIgnoredWhenReplanOff) {
  faultlib::FaultInjector poison(PoisonPlan());
  AdaptiveSample sample;
  const query::Query* q = FindCleanlyCorrectedQuery(&poison, &sample);
  ASSERT_NE(q, nullptr);
  ASSERT_NE(sample.adaptive.replan_pins, nullptr);

  faultlib::ScopedFaultInjection inject(&poison);
  const auto replica = SharedDb()->CloneContextForWorker();
  // The replan thresholds that made this query replan, with the switch off:
  // a loop that ran anyway would trigger on the poisoned plan.
  engine::DbConfig off = AdaptiveConfig(replica->config());
  off.adaptive_replan = false;
  replica->SetConfig(off);
  replica->BeginQueryReplay(kSeed, *q);
  const engine::QueryRun unseeded =
      replica->ExecutePlan(*q, sample.poisoned_plan);
  replica->BeginQueryReplay(kSeed, *q);
  const engine::QueryRun seeded = replica->ExecutePlan(
      *q, sample.poisoned_plan, /*planning_ns=*/0, /*timeout_ns=*/0,
      /*deadline=*/nullptr, sample.adaptive.replan_pins.get());
  ExpectSameRun(seeded, unseeded, q->id);
  EXPECT_EQ(seeded.replans, 0);
}

// The serve path's plan feedback: a closed-loop execution that replanned
// writes the corrected plan and its pins back into the plan cache, so the
// next arrival of the same query is a cache hit that executes straight
// through — same answer, zero replans.
TEST(ServeFeedback, ClosedLoopCachesCorrectedPlan) {
  faultlib::FaultInjector poison(PoisonPlan());
  AdaptiveSample sample;
  const query::Query* q = FindCleanlyCorrectedQuery(&poison, &sample);
  ASSERT_NE(q, nullptr);

  engine::Database* db = SharedDb();
  const engine::DbConfig base_config = db->config();
  db->SetConfig(AdaptiveConfig(base_config));
  faultlib::ScopedFaultInjection inject(&poison);
  {
    ServerOptions options;
    options.workers = 1;
    options.route = RouteMode::kPglite;
    options.seed = kSeed;
    QueryServer server(db, options);

    const ServedQuery first = server.Submit(*q).get();
    ASSERT_TRUE(first.status.ok()) << first.status.ToString();
    EXPECT_EQ(first.result_rows, sample.clean.result_rows);
    EXPECT_GT(first.replans, 0);

    const ServedQuery second = server.Submit(*q).get();
    ASSERT_TRUE(second.status.ok()) << second.status.ToString();
    EXPECT_EQ(second.result_rows, sample.clean.result_rows);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(second.replans, 0);

    server.Shutdown();
    const obs::MetricsRegistry metrics = server.SnapshotMetrics();
    EXPECT_GE(metrics.Get(obs::Counter::kServePlanFeedback), 1);
    EXPECT_GE(metrics.Get(obs::Counter::kServeReplannedQueries), 1);
  }
  db->SetConfig(base_config);
}

}  // namespace
}  // namespace lqolab
