// Chaos tests (ctest label: chaos): deterministic fault injection through
// faultlib, containment of injected storage/executor faults as typed
// statuses, deadline cancellation mid-plan, graceful allocation-pressure
// degradation, bounded retry in the serving stack, and the differential
// oracle's fault mode (faults may cost availability, never correctness).
// Everything is seeded; the suite runs in a few seconds.

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "exec/deadline.h"
#include "faultlib/faultlib.h"
#include "fuzz/differential.h"
#include "lqo/native_passthrough.h"
#include "obs/metrics.h"
#include "query/sql_workload.h"
#include "serve/query_server.h"
#include "util/status.h"

namespace lqolab {
namespace {

using faultlib::FaultInjector;
using faultlib::FaultKind;
using faultlib::FaultPlan;
using faultlib::FaultRule;
using faultlib::ScopedFaultInjection;
using serve::QueryServer;
using serve::RouteMode;
using serve::ServedQuery;
using serve::ServerOptions;
using util::StatusCode;

/// One small database shared by every test in this binary (servers and
/// replicas execute on clones; the shared instance stays pristine).
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

/// The canonical fault-free replay outcome for occurrence 0 of `q`.
engine::QueryRun CleanRun(const query::Query& q) {
  const auto replica = SharedDb()->CloneContextForWorker();
  const auto planned = replica->PlanQuery(q);
  replica->BeginQueryReplay(SharedDb()->seed(), q);
  return replica->ExecutePlan(q, planned.plan, planned.planning_ns);
}

FaultRule ErrorRule(const char* point) {
  FaultRule rule;
  rule.point = point;
  rule.kind = FaultKind::kError;
  return rule;
}

TEST(FaultInjector, DisabledCheckIsNoop) {
  ASSERT_EQ(faultlib::Current(), nullptr);
  const faultlib::FaultAction action = LQOLAB_FAULT_POINT("buffer.read_page");
  EXPECT_FALSE(action.fired());
}

TEST(FaultInjector, UnarmedPointNeverFires) {
  FaultPlan plan;
  FaultRule rule = ErrorRule("buffer.read_page");
  rule.every_nth = 1;
  plan.Add(rule);
  FaultInjector injector(plan);
  ScopedFaultInjection inject(&injector);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(LQOLAB_FAULT_POINT("exec.node").fired());
  }
  EXPECT_EQ(injector.hits("exec.node"), 0);
  EXPECT_EQ(injector.total_fires(), 0);
}

TEST(FaultInjector, EveryNthFiresDeterministically) {
  FaultPlan plan;
  FaultRule rule = ErrorRule("p");
  rule.every_nth = 3;
  plan.Add(rule);
  FaultInjector injector(plan);
  ScopedFaultInjection inject(&injector);
  std::vector<int> fired_hits;
  for (int i = 0; i < 9; ++i) {
    if (LQOLAB_FAULT_POINT("p").fired()) fired_hits.push_back(i);
  }
  EXPECT_EQ(fired_hits, (std::vector<int>{2, 5, 8}));
  EXPECT_EQ(injector.hits("p"), 9);
  EXPECT_EQ(injector.fires("p"), 3);
}

TEST(FaultInjector, SkipHitsAndMaxFiresBoundTheSchedule) {
  FaultPlan plan;
  FaultRule rule = ErrorRule("p");
  rule.every_nth = 1;
  rule.skip_hits = 5;
  rule.max_fires = 2;
  plan.Add(rule);
  FaultInjector injector(plan);
  ScopedFaultInjection inject(&injector);
  std::vector<int> fired_hits;
  for (int i = 0; i < 12; ++i) {
    if (LQOLAB_FAULT_POINT("p").fired()) fired_hits.push_back(i);
  }
  EXPECT_EQ(fired_hits, (std::vector<int>{5, 6}));
  EXPECT_EQ(injector.fires("p"), 2);
}

TEST(FaultInjector, ProbabilityStreamIsSeededAndDeterministic) {
  auto run = [](uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    FaultRule rule = ErrorRule("p");
    rule.probability = 0.3;
    plan.Add(rule);
    FaultInjector injector(plan);
    ScopedFaultInjection inject(&injector);
    std::vector<bool> decisions;
    for (int i = 0; i < 1000; ++i) {
      decisions.push_back(LQOLAB_FAULT_POINT("p").fired());
    }
    return decisions;
  };

  const std::vector<bool> a = run(7);
  EXPECT_EQ(a, run(7));  // Bit-identical replay under the same seed.
  const int64_t fires =
      static_cast<int64_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 240);  // ~4 sigma around the 300/1000 expectation.
  EXPECT_LT(fires, 360);
  EXPECT_NE(run(8), a);  // Another seed draws another schedule.
}

TEST(FaultInjector, FiresAreCountedOnTheMetricsRegistry) {
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  FaultPlan plan;
  FaultRule error = ErrorRule("a");
  error.every_nth = 1;
  FaultRule latency;
  latency.point = "b";
  latency.kind = FaultKind::kLatency;
  latency.latency_ns = 10;
  latency.every_nth = 1;
  plan.Add(error);
  plan.Add(latency);
  FaultInjector injector(plan);
  ScopedFaultInjection inject(&injector);
  (void)LQOLAB_FAULT_POINT("a");
  (void)LQOLAB_FAULT_POINT("b");
  (void)LQOLAB_FAULT_POINT("b");
  EXPECT_EQ(metrics.Get(obs::Counter::kFaultInjectedErrors), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kFaultInjectedLatency), 2);
}

TEST(FaultInjector, ScopesNestAndRestore) {
  FaultPlan plan;
  plan.Add(ErrorRule("p"));
  FaultInjector outer(plan);
  FaultInjector inner(plan);
  ASSERT_EQ(faultlib::Current(), nullptr);
  {
    ScopedFaultInjection a(&outer);
    EXPECT_EQ(faultlib::Current(), &outer);
    {
      ScopedFaultInjection b(&inner);
      EXPECT_EQ(faultlib::Current(), &inner);
    }
    EXPECT_EQ(faultlib::Current(), &outer);
  }
  EXPECT_EQ(faultlib::Current(), nullptr);
}

TEST(ExecutorFaults, ReadPageErrorIsContainedAsTypedStatus) {
  const query::Query& q = Workload()[0];
  const engine::QueryRun clean = CleanRun(q);
  ASSERT_TRUE(clean.status.ok());

  FaultPlan plan;
  FaultRule rule = ErrorRule("buffer.read_page");
  rule.every_nth = 1;
  plan.Add(rule);
  FaultInjector injector(plan);

  const auto replica = SharedDb()->CloneContextForWorker();
  const auto planned = replica->PlanQuery(q);
  replica->BeginQueryReplay(SharedDb()->seed(), q);
  engine::QueryRun faulted;
  {
    ScopedFaultInjection inject(&injector);
    faulted = replica->ExecutePlan(q, planned.plan, planned.planning_ns);
  }
  EXPECT_EQ(faulted.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(faulted.status.retryable());
  EXPECT_FALSE(faulted.timed_out);
  EXPECT_EQ(faulted.result_rows, 0);
  EXPECT_GT(injector.fires("buffer.read_page"), 0);

  // The fault never leaks into later executions: a clean replay on the
  // same replica reproduces the canonical run exactly.
  replica->BeginQueryReplay(SharedDb()->seed(), q);
  const engine::QueryRun after =
      replica->ExecutePlan(q, planned.plan, planned.planning_ns);
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(after.result_rows, clean.result_rows);
  EXPECT_EQ(after.execution_ns, clean.execution_ns);
}

TEST(ExecutorFaults, LatencySpikeChargesVirtualTimeOnly) {
  const query::Query& q = Workload()[0];
  const engine::QueryRun clean = CleanRun(q);

  FaultPlan plan;
  FaultRule rule;
  rule.point = "buffer.read_page";
  rule.kind = FaultKind::kLatency;
  rule.latency_ns = 50'000;
  rule.every_nth = 100;
  plan.Add(rule);
  FaultInjector injector(plan);

  const auto replica = SharedDb()->CloneContextForWorker();
  const auto planned = replica->PlanQuery(q);
  replica->BeginQueryReplay(SharedDb()->seed(), q);
  engine::QueryRun slow;
  {
    ScopedFaultInjection inject(&injector);
    slow = replica->ExecutePlan(q, planned.plan, planned.planning_ns);
  }
  // Latency faults degrade, never break: the answer is intact and slower.
  EXPECT_TRUE(slow.status.ok());
  EXPECT_EQ(slow.result_rows, clean.result_rows);
  EXPECT_GT(slow.execution_ns, clean.execution_ns);
}

TEST(ExecutorFaults, DeadlineCancellationAbortsWithTheCancelCode) {
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  const query::Query& q = Workload()[0];
  const auto replica = SharedDb()->CloneContextForWorker();
  const auto planned = replica->PlanQuery(q);

  exec::QueryDeadline deadline;
  EXPECT_FALSE(deadline.cancelled());
  deadline.Cancel(StatusCode::kShutdown);
  // First cancel wins; a racing second cancel must not overwrite the code.
  deadline.Cancel(StatusCode::kCancelled);
  EXPECT_EQ(deadline.code(), StatusCode::kShutdown);

  replica->BeginQueryReplay(SharedDb()->seed(), q);
  const engine::QueryRun run = replica->ExecutePlan(
      q, planned.plan, planned.planning_ns, /*timeout_ns=*/0, &deadline);
  EXPECT_EQ(run.status.code(), StatusCode::kShutdown);
  EXPECT_FALSE(run.status.retryable());
  EXPECT_EQ(run.result_rows, 0);
  EXPECT_EQ(metrics.Get(obs::Counter::kExecCancelled), 1);
}

TEST(ExecutorFaults, StatementTimeoutReportsDeadlineExceeded) {
  const query::Query& q = Workload()[20];
  const auto replica = SharedDb()->CloneContextForWorker();
  const auto planned = replica->PlanQuery(q);
  replica->BeginQueryReplay(SharedDb()->seed(), q);
  const engine::QueryRun run = replica->ExecutePlan(
      q, planned.plan, planned.planning_ns, /*timeout_ns=*/1);
  EXPECT_TRUE(run.timed_out);
  EXPECT_EQ(run.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(run.status.retryable());
}

// The executor charges each page loop as one batch and takes the batch's
// buffer.read_page hits per page, in page order, before its accesses.
// Every-nth decisions depend only on the hit index, so one injector shared
// by a few JOB-lite queries (its hit counter runs across them) must fire on
// exactly the pages it fired on when every page was charged on its own.
// The constants were recorded with per-page charging, then re-recorded
// when Analyze's MCV tie order became explicit (two of these queries
// changed plans); hits equal the pages the runs accessed.
TEST(ExecutorFaults, BatchedReadPageHitsKeepHitIndices) {
  FaultPlan plan;
  FaultRule rule;
  rule.point = "buffer.read_page";
  rule.kind = FaultKind::kLatency;
  rule.latency_ns = 30'000;
  rule.every_nth = 97;
  plan.Add(rule);
  FaultInjector injector(plan);

  const size_t queries[] = {0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110};
  const util::VirtualNanos expected_ns[] = {
      20510671, 25709216, 45311279, 58729511, 25464595, 19991244,
      85204552, 61308055, 20710609, 105282427, 67819255, 18775612};
  int64_t pages = 0;
  for (size_t i = 0; i < std::size(queries); ++i) {
    const query::Query& q = Workload()[queries[i]];
    const auto replica = SharedDb()->CloneContextForWorker();
    const auto planned = replica->PlanQuery(q);
    replica->BeginQueryReplay(SharedDb()->seed(), q);
    engine::QueryRun run;
    {
      ScopedFaultInjection inject(&injector);
      run = replica->ExecutePlan(q, planned.plan, planned.planning_ns);
    }
    ASSERT_TRUE(run.status.ok()) << q.id;
    EXPECT_EQ(run.execution_ns, expected_ns[i]) << q.id;
    pages += run.pages_accessed;
  }
  EXPECT_EQ(injector.hits("buffer.read_page"), pages);
  EXPECT_EQ(pages, 29746);
  EXPECT_EQ(injector.fires("buffer.read_page"), 306);
}

// --- Batched-engine fault boundaries ---------------------------------------
// The batched oracle keeps long-lived scratch state — selection vectors,
// grouped join tables, Bloom filters — that an aborted run leaves
// mid-flight. These tests pin that faults, cancellation and oracle overflow
// are contained and never poison later clean runs through that reused
// state. (Rows match the tuple-at-a-time reference by tests/test_kernels.cc
// and tests/test_answers.cc.)

TEST(BatchedEngineFaults, ExecNodeFaultMidPlanIsContainedOnBothEngines) {
  const query::Query& q = Workload()[0];
  const auto replica = SharedDb()->CloneContextForWorker();
  const auto planned = replica->PlanQuery(q);

  FaultPlan plan;
  FaultRule rule = ErrorRule("exec.node");
  rule.every_nth = 1;
  rule.skip_hits = 2;  // fires at the third node boundary: mid-plan, with
                       // batched scratch already holding partial state
  plan.Add(rule);
  FaultInjector injector(plan);

  replica->BeginQueryReplay(SharedDb()->seed(), q);
  engine::QueryRun faulted;
  {
    ScopedFaultInjection inject(&injector);
    faulted = replica->ExecutePlan(q, planned.plan, planned.planning_ns);
  }
  EXPECT_FALSE(faulted.status.ok());
  EXPECT_EQ(faulted.result_rows, 0);
  EXPECT_GT(injector.fires("exec.node"), 0);

  // Clean replay on the same replica must be untouched by the abandoned
  // intermediate state: it reports the rows of a run on an untouched one.
  replica->BeginQueryReplay(SharedDb()->seed(), q);
  const engine::QueryRun after =
      replica->ExecutePlan(q, planned.plan, planned.planning_ns);
  EXPECT_TRUE(after.status.ok());
  const auto untouched = SharedDb()->CloneContextForWorker();
  untouched->BeginQueryReplay(SharedDb()->seed(), q);
  const engine::QueryRun clean =
      untouched->ExecutePlan(q, planned.plan, planned.planning_ns);
  ASSERT_TRUE(clean.status.ok());
  EXPECT_EQ(after.result_rows, clean.result_rows);
}

TEST(BatchedEngineFaults, DeadlineCancellationBehavesIdenticallyPerEngine) {
  const query::Query& q = Workload()[3];
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  const auto replica = SharedDb()->CloneContextForWorker();
  const auto planned = replica->PlanQuery(q);

  exec::QueryDeadline deadline;
  deadline.Cancel(StatusCode::kCancelled);
  replica->BeginQueryReplay(SharedDb()->seed(), q);
  const engine::QueryRun run = replica->ExecutePlan(
      q, planned.plan, planned.planning_ns, /*timeout_ns=*/0, &deadline);
  EXPECT_EQ(run.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(run.result_rows, 0);
  EXPECT_EQ(metrics.Get(obs::Counter::kExecCancelled), 1);

  replica->BeginQueryReplay(SharedDb()->seed(), q);
  const engine::QueryRun after =
      replica->ExecutePlan(q, planned.plan, planned.planning_ns);
  EXPECT_TRUE(after.status.ok());
}

TEST(BatchedEngineFaults, OracleOverflowTimesOutIdenticallyOnBothEngines) {
  // Cyclic self-join on the ~12-value role_id column: the triangle's true
  // cardinality exceeds every materialization cap and the cycle defeats the
  // oracle's tree-count fallback, so the subset is an honest overflow. The
  // plan must be classified as timed out rather than report a partial
  // count.
  const catalog::Schema& schema = SharedDb()->schema();
  const catalog::TableId cast_info = schema.FindTable("cast_info");
  ASSERT_NE(cast_info, catalog::kInvalidTable);
  const catalog::ColumnId role_id =
      schema.table(cast_info).FindColumn("role_id");
  ASSERT_NE(role_id, catalog::kInvalidColumn);

  query::Query q;
  q.id = "chaos_overflow_cycle";
  q.relations = {{cast_info, "c1"}, {cast_info, "c2"}, {cast_info, "c3"}};
  q.edges = {{0, role_id, 1, role_id},
             {1, role_id, 2, role_id},
             {2, role_id, 0, role_id}};

  const auto replica = SharedDb()->CloneContextForWorker();
  const auto planned = replica->PlanQuery(q);
  replica->BeginQueryReplay(SharedDb()->seed(), q);
  const engine::QueryRun run =
      replica->ExecutePlan(q, planned.plan, planned.planning_ns);
  EXPECT_TRUE(run.timed_out);
  EXPECT_EQ(run.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(run.result_rows, 0);
}

TEST(AllocationPressure, TrySetConfigDegradesToTypedStatus) {
  const auto replica = SharedDb()->CloneContextForWorker();
  const engine::DbConfig before = replica->config();

  engine::DbConfig bad = before;
  bad.shared_buffers_mb = -1;
  const util::Status status = replica->TrySetConfig(bad);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(status.retryable());
  // The rejected config left the engine untouched and still serving.
  EXPECT_EQ(replica->config().shared_buffers_mb, before.shared_buffers_mb);
  const query::Query& q = Workload()[0];
  const auto planned = replica->PlanQuery(q);
  replica->BeginQueryReplay(SharedDb()->seed(), q);
  EXPECT_TRUE(
      replica->ExecutePlan(q, planned.plan, planned.planning_ns).status.ok());

  engine::DbConfig good = before;
  good.shared_buffers_mb = std::max<int64_t>(1, before.shared_buffers_mb / 2);
  EXPECT_TRUE(replica->TrySetConfig(good).ok());
  EXPECT_EQ(replica->config().shared_buffers_mb, good.shared_buffers_mb);
}

TEST(ServeChaos, TransientWorkerFaultIsRetriedToSuccess) {
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kPglite;
  options.max_retries = 2;
  QueryServer server(SharedDb(), options);

  FaultPlan plan;
  FaultRule rule = ErrorRule("serve.worker");
  rule.every_nth = 1;
  rule.max_fires = 1;  // Exactly one transient fault, then healthy.
  plan.Add(rule);
  FaultInjector injector(plan);
  ScopedFaultInjection inject(&injector);

  const query::Query& q = Workload()[0];
  const ServedQuery served = server.Submit(q).get();
  EXPECT_TRUE(served.status.ok());
  EXPECT_EQ(served.retries, 1);
  EXPECT_GT(served.backoff_ns, 0);
  EXPECT_EQ(served.result_rows, CleanRun(q).result_rows);

  const obs::MetricsRegistry metrics = server.SnapshotMetrics();
  EXPECT_EQ(metrics.Get(obs::Counter::kServeRetries), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kFaultInjectedErrors), 1);
  EXPECT_EQ(metrics.Get(obs::Counter::kServeQueries), 1);
}

TEST(ServeChaos, ExhaustedRetriesSurfaceTheFaultStatus) {
  ServerOptions options;
  options.workers = 1;
  options.route = RouteMode::kPglite;
  options.max_retries = 1;
  QueryServer server(SharedDb(), options);

  FaultPlan plan;
  FaultRule rule = ErrorRule("serve.worker");
  rule.every_nth = 1;  // Unlimited: every attempt fails.
  plan.Add(rule);
  FaultInjector injector(plan);
  ScopedFaultInjection inject(&injector);

  const ServedQuery served = server.Submit(Workload()[0]).get();
  EXPECT_EQ(served.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(served.retries, 1);
  EXPECT_EQ(injector.fires("serve.worker"), 2);  // Initial try + 1 retry.
}

TEST(ServeChaos, SingleWorkerSoakIsDeterministic) {
  struct Outcome {
    StatusCode code;
    int64_t rows;
    int32_t retries;
  };
  auto soak = [&]() {
    ServerOptions options;
    options.workers = 1;
    options.route = RouteMode::kLqo;
    options.cache.capacity_per_shard = 0;  // Plan every admission.
    QueryServer server(SharedDb(), options);
    server.PublishModel(std::make_shared<lqo::NativePassthroughOptimizer>());

    FaultPlan plan;
    plan.seed = 11;
    FaultRule storage = ErrorRule("buffer.read_page");
    storage.probability = 0.002;
    FaultRule worker = ErrorRule("serve.worker");
    worker.probability = 0.05;
    plan.Add(storage);
    plan.Add(worker);
    FaultInjector injector(plan);
    ScopedFaultInjection inject(&injector);

    std::vector<Outcome> outcomes;
    for (size_t i = 0; i < 20; ++i) {
      const ServedQuery served =
          server.Submit(Workload()[i % Workload().size()]).get();
      outcomes.push_back(
          {served.status.code(), served.result_rows, served.retries});
    }
    server.Shutdown();
    return outcomes;
  };

  const auto a = soak();
  const auto b = soak();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].code, b[i].code) << "query " << i;
    EXPECT_EQ(a[i].rows, b[i].rows) << "query " << i;
    EXPECT_EQ(a[i].retries, b[i].retries) << "query " << i;
    // Faults cost availability, never correctness: every success matches
    // its canonical fault-free replay.
    if (a[i].code == StatusCode::kOk) {
      EXPECT_EQ(a[i].rows, CleanRun(Workload()[i % Workload().size()]).result_rows)
          << "query " << i;
    }
  }
}

TEST(DifferentialFaultMode, FaultsNeverChangeCardinalityOfSuccesses) {
  fuzz::DifferentialOptions options;
  FaultRule storage = ErrorRule("buffer.read_page");
  storage.probability = 0.01;
  FaultRule latency;
  latency.point = "exec.node";
  latency.kind = FaultKind::kLatency;
  latency.latency_ns = 25'000;
  latency.probability = 0.05;
  options.fault_plan.seed = 3;
  options.fault_plan.Add(storage);
  options.fault_plan.Add(latency);

  fuzz::DifferentialOracle oracle(SharedDb(), options);
  fuzz::CheckCounts checks;
  int32_t checked = 0;
  for (const query::Query& q : Workload()) {
    if (q.relation_count() > 4) continue;
    const fuzz::CheckReport report = oracle.Check(q);
    for (const fuzz::Discrepancy& d : report.discrepancies) {
      ADD_FAILURE() << d.check << ": " << d.detail;
    }
    checks += report.checks;
    if (++checked == 3) break;
  }
  ASSERT_EQ(checked, 3);
  EXPECT_EQ(checks.fault_execution, 3);
}

}  // namespace
}  // namespace lqolab
