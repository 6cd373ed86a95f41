// Tests for the observability layer (src/obs/): metrics registry semantics,
// EXPLAIN ANALYZE rendering against executor ground truth, JSONL trace
// output, parallel-vs-serial counter aggregation, and the zero-effect
// contract (enabling metrics never changes measured numbers).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchkit/measurement.h"
#include "benchkit/parallel_runner.h"
#include "engine/database.h"
#include "lqo/bao.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/sql_workload.h"
#include "storage/buffer_pool.h"

namespace lqolab::obs {
namespace {

using engine::Database;
using query::Query;

// ---------------------------------------------------------------------------
// LogHistogram

TEST(LogHistogramTest, ObserveTracksCountSumMinMax) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  h.Observe(5);
  h.Observe(100);
  h.Observe(1);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 106);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
}

TEST(LogHistogramTest, PowerOfTwoBuckets) {
  LogHistogram h;
  h.Observe(0);  // bit_width(0) == 0
  h.Observe(1);  // bit_width(1) == 1
  h.Observe(7);  // bit_width(7) == 3
  h.Observe(8);  // bit_width(8) == 4
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(3), 1);
  EXPECT_EQ(h.bucket(4), 1);
  EXPECT_EQ(h.bucket(2), 0);
}

TEST(LogHistogramTest, NegativesClampToZero) {
  LogHistogram h;
  h.Observe(-42);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.bucket(0), 1);
}

TEST(LogHistogramTest, MergeIsElementWise) {
  LogHistogram a, b;
  a.Observe(3);
  a.Observe(1000);
  b.Observe(2);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.sum(), 1005);
  EXPECT_EQ(a.min(), 2);
  EXPECT_EQ(a.max(), 1000);
}

// ---------------------------------------------------------------------------
// MetricsRegistry / MetricsScope

TEST(MetricsRegistryTest, DisabledByDefault) {
  EXPECT_EQ(MetricsRegistry::Current(), nullptr);
  // Free-function helpers are no-ops without a scope.
  Count(Counter::kExecPlansExecuted);
  Observe(Histogram::kExecutionLatencyNs, 123);
}

TEST(MetricsRegistryTest, ScopeInstallsAndRestores) {
  MetricsRegistry outer;
  {
    MetricsScope scope(&outer);
    EXPECT_EQ(MetricsRegistry::Current(), &outer);
    Count(Counter::kExecPlansExecuted, 2);
    {
      MetricsRegistry inner;
      MetricsScope nested(&inner);
      EXPECT_EQ(MetricsRegistry::Current(), &inner);
      Count(Counter::kExecPlansExecuted, 5);
      EXPECT_EQ(inner.Get(Counter::kExecPlansExecuted), 5);
    }
    EXPECT_EQ(MetricsRegistry::Current(), &outer);
  }
  EXPECT_EQ(MetricsRegistry::Current(), nullptr);
  EXPECT_EQ(outer.Get(Counter::kExecPlansExecuted), 2);
}

TEST(MetricsRegistryTest, MergeAndReset) {
  MetricsRegistry a, b;
  a.Add(Counter::kBufferSharedHits, 3);
  b.Add(Counter::kBufferSharedHits, 4);
  b.Add(Counter::kOracleCardinalityCalls, 1);
  b.Observe(Histogram::kExecutionLatencyNs, 50);
  a.MergeFrom(b);
  EXPECT_EQ(a.Get(Counter::kBufferSharedHits), 7);
  EXPECT_EQ(a.Get(Counter::kOracleCardinalityCalls), 1);
  EXPECT_EQ(a.histogram(Histogram::kExecutionLatencyNs).count(), 1);
  a.Reset();
  EXPECT_EQ(a.Get(Counter::kBufferSharedHits), 0);
  EXPECT_EQ(a.histogram(Histogram::kExecutionLatencyNs).count(), 0);
}

TEST(MetricsRegistryTest, CounterNamesAreUniqueAndLayered) {
  std::set<std::string> names;
  const std::set<std::string> layers = {"storage", "exec",      "optimizer",
                                        "lqo",     "serve",     "costmodel",
                                        "fault"};
  for (int32_t i = 0; i < static_cast<int32_t>(Counter::kCounterCount); ++i) {
    const Counter c = static_cast<Counter>(i);
    ASSERT_NE(CounterName(c), nullptr);
    EXPECT_TRUE(names.insert(CounterName(c)).second)
        << "duplicate counter name " << CounterName(c);
    EXPECT_TRUE(layers.count(CounterLayer(c)))
        << CounterName(c) << " has unknown layer " << CounterLayer(c);
  }
  for (int32_t i = 0; i < static_cast<int32_t>(Histogram::kHistogramCount);
       ++i) {
    ASSERT_NE(HistogramName(static_cast<Histogram>(i)), nullptr);
  }
}

TEST(MetricsRegistryTest, JsonAndTextRendering) {
  MetricsRegistry r;
  r.Add(Counter::kBufferDiskReads, 9);
  r.Observe(Histogram::kPlanningLatencyNs, 1024);
  const std::string json = r.ToJson();
  EXPECT_NE(json.find("\"buffer_disk_reads\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"planning_latency_ns\""), std::string::npos) << json;
  const std::string text = r.ToText();
  EXPECT_NE(text.find("buffer_disk_reads"), std::string::npos) << text;
  // Zero counters are omitted from the text rendering.
  EXPECT_EQ(text.find("buffer_evictions"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// JsonObject / TraceWriter

TEST(JsonObjectTest, RendersTypedFieldsInOrder) {
  JsonObject o;
  o.Set("i", static_cast<int64_t>(-3));
  o.Set("d", 1.5);
  o.Set("b", true);
  o.Set("s", "a\"b\nc");
  o.SetRaw("raw", "[1,2]");
  EXPECT_EQ(o.ToString(),
            "{\"i\":-3,\"d\":1.5,\"b\":true,\"s\":\"a\\\"b\\nc\",\"raw\":[1,2]}");
}

TEST(JsonObjectTest, NonFiniteDoublesRenderAsNull) {
  // JSON has no NaN/Infinity literals; a bare `nan` token makes the whole
  // record unparsable downstream. Non-finite values must degrade to null.
  JsonObject o;
  o.Set("nan", std::nan(""));
  o.Set("pinf", std::numeric_limits<double>::infinity());
  o.Set("ninf", -std::numeric_limits<double>::infinity());
  o.Set("ok", 2.5);
  EXPECT_EQ(o.ToString(),
            "{\"nan\":null,\"pinf\":null,\"ninf\":null,\"ok\":2.5}");
}

TEST(TraceWriterTest, WritesOneRecordPerLine) {
  const std::string path = ::testing::TempDir() + "lqolab_trace_test.jsonl";
  {
    TraceWriter writer(path);
    ASSERT_TRUE(writer.ok());
    JsonObject a;
    a.Set("type", "first");
    writer.Write(a);
    JsonObject b;
    b.Set("type", "second");
    b.Set("n", static_cast<int64_t>(2));
    writer.Write(b);
    EXPECT_EQ(writer.records_written(), 2);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"type\":\"first\"}");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"type\":\"second\",\"n\":2}");
  EXPECT_FALSE(std::getline(in, line));
}

TEST(TraceWriterTest, MetricsRecord) {
  const std::string path = ::testing::TempDir() + "lqolab_metrics_test.jsonl";
  MetricsRegistry r;
  r.Add(Counter::kExecTimeouts, 1);
  TraceWriter writer(path);
  WriteMetricsTrace(r, &writer);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"type\":\"metrics\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"exec_timeouts\":1"), std::string::npos) << line;
}

// ---------------------------------------------------------------------------
// Engine-integrated tests (shared small database)

class ObsEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Database::Options options;
    options.profile = datagen::ScaleProfile::Small();
    options.seed = 42;
    db_ = Database::CreateImdb(options).release();
    workload_ =
        new std::vector<Query>(query::LoadWorkload("job", db_->schema()));
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete db_;
    db_ = nullptr;
    workload_ = nullptr;
  }

  /// A query with at least `joins` joins (the EXPLAIN walkthrough target).
  static const Query& QueryWithJoins(int32_t joins) {
    for (const Query& q : *workload_) {
      if (q.join_count() >= joins) return q;
    }
    ADD_FAILURE() << "no query with >= " << joins << " joins";
    return workload_->front();
  }

  static Database* db_;
  static std::vector<Query>* workload_;
};

Database* ObsEngineTest::db_ = nullptr;
std::vector<Query>* ObsEngineTest::workload_ = nullptr;

TEST_F(ObsEngineTest, NodeStatsMatchExecutorGroundTruth) {
  const Query& q = QueryWithJoins(5);
  db_->BeginQueryReplay(42, q);
  const Database::Planned planned = db_->PlanQuery(q);
  const engine::QueryRun run =
      db_->ExecutePlan(q, planned.plan, planned.planning_ns);
  ASSERT_EQ(run.node_stats.size(), planned.plan.nodes.size());
  ASSERT_EQ(run.node_rows.size(), run.node_stats.size());
  int64_t buffer_total = 0;
  for (size_t i = 0; i < run.node_stats.size(); ++i) {
    const exec::PlanNodeStats& stats = run.node_stats[i];
    EXPECT_EQ(stats.actual_rows, run.node_rows[i]) << "node " << i;
    EXPECT_GE(stats.loops, 1) << "node " << i;
    buffer_total += stats.shared_hits + stats.os_hits + stats.disk_reads;
  }
  // Every page the executor charged was served by exactly one cache tier,
  // and per-node deltas partition the execution's accesses.
  EXPECT_EQ(buffer_total, run.pages_accessed);
  // The root outputs the query result.
  EXPECT_EQ(run.node_stats[static_cast<size_t>(planned.plan.root)].actual_rows,
            run.result_rows);
}

TEST_F(ObsEngineTest, ExplainAnalyzeTextReportsPerNodeActuals) {
  const Query& q = QueryWithJoins(5);
  db_->BeginQueryReplay(42, q);
  const std::string text = db_->ExplainAnalyze(q);
  EXPECT_NE(text.find("EXPLAIN ANALYZE " + q.id), std::string::npos) << text;
  EXPECT_NE(text.find("(actual rows="), std::string::npos) << text;
  EXPECT_NE(text.find("loops="), std::string::npos) << text;
  EXPECT_NE(text.find("Buffers: shared hit="), std::string::npos) << text;
  EXPECT_NE(text.find("Planning Time:"), std::string::npos) << text;
  EXPECT_NE(text.find("Execution Time:"), std::string::npos) << text;
  // One "-> operator" line per plan node.
  size_t operators = 0;
  for (size_t pos = text.find("-> "); pos != std::string::npos;
       pos = text.find("-> ", pos + 3)) {
    ++operators;
  }
  EXPECT_EQ(operators, static_cast<size_t>(2 * q.join_count() + 1));
}

TEST_F(ObsEngineTest, ExplainAnalyzeJsonMirrorsPlanTree) {
  const Query& q = QueryWithJoins(3);
  db_->BeginQueryReplay(42, q);
  const std::string json = db_->ExplainAnalyzeJson(q);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"query\":\"" + q.id + "\""), std::string::npos);
  EXPECT_NE(json.find("\"plan\":{"), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  EXPECT_NE(json.find("\"actual_rows\":"), std::string::npos);
  // JSON is one line (JSONL-embeddable).
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST_F(ObsEngineTest, CollectionDoesNotChangeMeasurements) {
  const Query& q = QueryWithJoins(4);
  db_->BeginQueryReplay(42, q);
  const Database::Planned planned = db_->PlanQuery(q);
  const engine::QueryRun bare =
      db_->ExecutePlan(q, planned.plan, planned.planning_ns);

  MetricsRegistry metrics;
  db_->BeginQueryReplay(42, q);
  engine::QueryRun instrumented;
  {
    MetricsScope scope(&metrics);
    const Database::Planned replanned = db_->PlanQuery(q);
    instrumented = db_->ExecutePlan(q, replanned.plan, replanned.planning_ns);
  }
  EXPECT_EQ(bare.execution_ns, instrumented.execution_ns);
  EXPECT_EQ(bare.planning_ns, instrumented.planning_ns);
  EXPECT_EQ(bare.result_rows, instrumented.result_rows);
  EXPECT_EQ(bare.pages_accessed, instrumented.pages_accessed);
  EXPECT_EQ(bare.node_rows, instrumented.node_rows);
  // And collection actually recorded the execution.
  EXPECT_EQ(metrics.Get(Counter::kExecPlansExecuted), 1);
  EXPECT_EQ(metrics.Get(Counter::kPlannerInvocations), 1);
  EXPECT_EQ(metrics.Get(Counter::kExecPagesAccessed),
            instrumented.pages_accessed);
  EXPECT_EQ(metrics.Get(Counter::kBufferSharedHits) +
                metrics.Get(Counter::kBufferOsHits) +
                metrics.Get(Counter::kBufferDiskReads),
            metrics.Get(Counter::kExecPagesAccessed));
  EXPECT_GT(metrics.Get(Counter::kOracleCardinalityCalls), 0);
  EXPECT_EQ(metrics.histogram(Histogram::kExecutionLatencyNs).count(), 1);
}

TEST_F(ObsEngineTest, ParallelWorkloadCountersEqualSerialRun) {
  std::vector<Query> queries(workload_->begin(), workload_->begin() + 12);
  benchkit::Protocol protocol;

  auto measure = [&](int32_t parallelism, MetricsRegistry* metrics) {
    benchkit::RunnerOptions options;
    options.parallelism = parallelism;
    options.seed = 7;
    MetricsScope scope(metrics);
    return benchkit::MeasureWorkload(db_, nullptr, queries, protocol, options);
  };

  MetricsRegistry serial, parallel;
  const auto serial_result = measure(1, &serial);
  const auto parallel_result = measure(4, &parallel);

  // The measurements themselves replay bit-identically (the runner's
  // determinism contract)...
  ASSERT_EQ(serial_result.queries.size(), parallel_result.queries.size());
  for (size_t i = 0; i < serial_result.queries.size(); ++i) {
    EXPECT_EQ(serial_result.queries[i].execution_ns,
              parallel_result.queries[i].execution_ns);
  }
  // ...and so do the aggregated counters and histograms: merging per-worker
  // registries commutes, so any worker count sums to the serial totals.
  // The oracle's replica-wide caches are the exception: a base or build
  // table is reused only by queries that ran on the same replica, so
  // spreading queries over more replicas can only turn reuses into builds.
  // The requests themselves (builds + reuses) still sum to the serial run's.
  const Counter replica_cache[] = {Counter::kOracleHashBuilds,
                                   Counter::kOracleBaseReuses,
                                   Counter::kOracleBuildReuses};
  for (int32_t i = 0; i < static_cast<int32_t>(Counter::kCounterCount); ++i) {
    const Counter c = static_cast<Counter>(i);
    if (std::find(std::begin(replica_cache), std::end(replica_cache), c) !=
        std::end(replica_cache)) {
      continue;
    }
    EXPECT_EQ(serial.Get(c), parallel.Get(c)) << CounterName(c);
  }
  EXPECT_EQ(serial.Get(Counter::kOracleHashBuilds) +
                serial.Get(Counter::kOracleBuildReuses),
            parallel.Get(Counter::kOracleHashBuilds) +
                parallel.Get(Counter::kOracleBuildReuses));
  EXPECT_LE(parallel.Get(Counter::kOracleBuildReuses),
            serial.Get(Counter::kOracleBuildReuses));
  EXPECT_LE(parallel.Get(Counter::kOracleBaseReuses),
            serial.Get(Counter::kOracleBaseReuses));
  EXPECT_GT(serial.Get(Counter::kOracleBaseReuses), 0);
  for (int32_t i = 0; i < static_cast<int32_t>(Histogram::kHistogramCount);
       ++i) {
    const Histogram h = static_cast<Histogram>(i);
    EXPECT_EQ(serial.histogram(h).count(), parallel.histogram(h).count());
    EXPECT_EQ(serial.histogram(h).sum(), parallel.histogram(h).sum());
    EXPECT_EQ(serial.histogram(h).min(), parallel.histogram(h).min());
    EXPECT_EQ(serial.histogram(h).max(), parallel.histogram(h).max());
  }
  EXPECT_GT(serial.Get(Counter::kExecPlansExecuted), 0);
}

TEST_F(ObsEngineTest, BaoTrainingEmitsEpisodes) {
  std::vector<Query> train(workload_->begin(), workload_->begin() + 4);
  lqo::BaoOptimizer::Options options;
  options.epochs = 2;
  options.train_epochs = 2;
  options.seed = 42;
  // Deterministic-replay training path: executions run on worker replicas,
  // so the shared fixture database's cache state stays untouched.
  options.parallelism = 1;
  lqo::BaoOptimizer bao(options);

  MetricsRegistry metrics;
  lqo::TrainReport report;
  {
    MetricsScope scope(&metrics);
    report = bao.Train(train, db_);
  }
  ASSERT_EQ(report.episodes.size(), 2u);
  int64_t plans = 0, updates = 0, evals = 0;
  util::VirtualNanos exec_ns = 0;
  for (size_t i = 0; i < report.episodes.size(); ++i) {
    const lqo::EpisodeStats& e = report.episodes[i];
    EXPECT_EQ(e.episode, static_cast<int32_t>(i));
    EXPECT_GE(e.loss, 0.0);
    EXPECT_GT(e.nn_updates, 0);
    plans += e.plans_executed;
    updates += e.nn_updates;
    evals += e.nn_evals;
    exec_ns += e.execution_ns;
  }
  // Episode deltas partition the report totals.
  EXPECT_EQ(plans, report.plans_executed);
  EXPECT_EQ(updates, report.nn_updates);
  EXPECT_EQ(evals, report.nn_evals);
  EXPECT_EQ(exec_ns, report.execution_ns);
  EXPECT_EQ(metrics.Get(Counter::kTrainEpisodes), 2);
  EXPECT_GT(metrics.Get(Counter::kHintSetsPlanned), 0);
}

TEST(BufferPoolObsTest, CountsEvictions) {
  storage::BufferPool pool(2, 2);
  MetricsRegistry metrics;
  MetricsScope scope(&metrics);
  for (int64_t page = 0; page < 3; ++page) {
    pool.Access(storage::BufferPool::PageKey(
        0, storage::PageKind::kHeap, catalog::kInvalidColumn, page));
  }
  EXPECT_GT(pool.evictions(), 0);
  EXPECT_EQ(metrics.Get(Counter::kBufferEvictions), pool.evictions());
  EXPECT_EQ(metrics.Get(Counter::kBufferDiskReads), 3);
}

}  // namespace
}  // namespace lqolab::obs
