// Tests for the parallel workload runner's determinism contract
// (docs/parallelism.md): measurements are bit-identical for every worker
// count and across repeated runs with the same seed, and the thread pool
// dispatches every item exactly once.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchkit/parallel_runner.h"
#include "benchkit/schedule_sim.h"
#include "engine/database.h"
#include "engine/exec_batch.h"
#include "lqo/bao.h"
#include "query/sql_workload.h"
#include "util/thread_pool.h"

#include "small_lqos.h"

namespace lqolab::benchkit {
namespace {

using engine::Database;
using query::Query;

TEST(ThreadPoolTest, ParallelForRunsEveryItemExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int32_t>> hits(257);
  pool.ParallelFor(static_cast<int64_t>(hits.size()),
                   [&](int32_t worker, int64_t item) {
                     EXPECT_GE(worker, 0);
                     EXPECT_LT(worker, 4);
                     ++hits[static_cast<size_t>(item)];
                   });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossJobsAndEmptyJob) {
  util::ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, [&](int32_t, int64_t) { sum += 1000; });
  EXPECT_EQ(sum.load(), 0);
  for (int round = 0; round < 3; ++round) {
    pool.ParallelFor(10, [&](int32_t, int64_t item) { sum += item; });
  }
  EXPECT_EQ(sum.load(), 3 * 45);
}

TEST(ThreadPoolTest, DefaultParallelismIsPositive) {
  EXPECT_GE(util::ThreadPool::DefaultParallelism(), 1);
}

// Forces a steal deterministically: worker 0's block is {0, 1} and item 0
// blocks until the three other items completed. Item 1 can therefore only
// run if worker 1 steals it from the back of worker 0's block after
// draining its own block {2, 3}; without stealing this test deadlocks (and
// the gtest timeout fails it) instead of passing vacuously.
TEST(ThreadPoolTest, IdleWorkerStealsFromBlockedWorkersBlock) {
  util::ThreadPool pool(2);
  const int64_t steals_before = pool.steals();
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  pool.ParallelFor(4, [&](int32_t, int64_t item) {
    std::unique_lock<std::mutex> lock(mu);
    if (item == 0) {
      cv.wait(lock, [&] { return done == 3; });
    }
    ++done;
    cv.notify_all();
  });
  EXPECT_EQ(done, 4);
  EXPECT_GE(pool.steals() - steals_before, 1);
}

TEST(ScheduleSimTest, SerialMakespanIsTotalCost) {
  const std::vector<util::VirtualNanos> costs = {5, 10, 15, 20};
  const ScheduleResult sim = SimulateWorkStealing(costs, 1);
  EXPECT_EQ(sim.makespan_ns, 50);
  EXPECT_EQ(sim.steals, 0);
  EXPECT_DOUBLE_EQ(sim.speedup(), 1.0);
}

TEST(ScheduleSimTest, BalancedTasksScaleNearLinearly) {
  const std::vector<util::VirtualNanos> costs(64, 100);
  const ScheduleResult sim = SimulateWorkStealing(costs, 4);
  EXPECT_EQ(sim.makespan_ns, 1600);  // 64 * 100 / 4, perfectly balanced
  EXPECT_DOUBLE_EQ(sim.speedup(), 4.0);
}

TEST(ScheduleSimTest, StealingRebalancesSkewedBlocks) {
  // All heavy tasks land in worker 0's static block; without stealing the
  // makespan would be 8 * 1000 = 8000. The thief drains its trivial block
  // and then steals, so the simulated pool splits the heavy tasks evenly.
  std::vector<util::VirtualNanos> costs(16, 1);
  for (size_t i = 0; i < 8; ++i) costs[i] = 1000;
  const ScheduleResult sim = SimulateWorkStealing(costs, 2);
  EXPECT_GT(sim.steals, 0);
  EXPECT_LT(sim.makespan_ns, 8000);
  EXPECT_GE(sim.makespan_ns, 4000);  // half the heavy work is a lower bound
}

TEST(ScheduleSimTest, DeterministicAndBoundedByLongestTask) {
  std::vector<util::VirtualNanos> costs;
  for (int i = 0; i < 37; ++i) costs.push_back(((i * 7919) % 97) + 1);
  const ScheduleResult a = SimulateWorkStealing(costs, 4);
  const ScheduleResult b = SimulateWorkStealing(costs, 4);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.steals, b.steals);
  util::VirtualNanos total = 0, longest = 0;
  for (util::VirtualNanos cost : costs) {
    total += cost;
    longest = std::max(longest, cost);
  }
  EXPECT_GE(a.makespan_ns, std::max(longest, total / 4));
  EXPECT_LE(a.makespan_ns, total);
  util::VirtualNanos busy = 0;
  for (util::VirtualNanos w : a.worker_busy_ns) busy += w;
  EXPECT_EQ(busy, total);  // every task executed exactly once
}

TEST(ScheduleSimTest, MoreWorkersThanTasks) {
  const std::vector<util::VirtualNanos> costs = {10, 20};
  const ScheduleResult sim = SimulateWorkStealing(costs, 8);
  EXPECT_EQ(sim.makespan_ns, 20);
  const ScheduleResult empty = SimulateWorkStealing({}, 4);
  EXPECT_EQ(empty.makespan_ns, 0);
  EXPECT_DOUBLE_EQ(empty.speedup(), 1.0);
}

class ParallelRunnerTest : public ::testing::Test {
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

  static void ExpectSameMeasurements(
      const std::vector<QueryMeasurement>& a,
      const std::vector<QueryMeasurement>& b, const char* label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE(std::string(label) + " query " + a[i].query_id);
      EXPECT_EQ(a[i].query_id, b[i].query_id);
      EXPECT_EQ(a[i].joins, b[i].joins);
      EXPECT_EQ(a[i].inference_ns, b[i].inference_ns);
      EXPECT_EQ(a[i].planning_ns, b[i].planning_ns);
      EXPECT_EQ(a[i].execution_ns, b[i].execution_ns);
      EXPECT_EQ(a[i].timed_out, b[i].timed_out);
      EXPECT_EQ(a[i].result_rows, b[i].result_rows);
      EXPECT_EQ(a[i].run_execution_ns, b[i].run_execution_ns);
      EXPECT_EQ(a[i].node_rows, b[i].node_rows);
    }
  }

  static Database* db_;
  static std::vector<Query>* workload_;
};

Database* ParallelRunnerTest::db_ = nullptr;
std::vector<Query>* ParallelRunnerTest::workload_ = nullptr;

TEST_F(ParallelRunnerTest, BitIdenticalAcrossWorkerCounts) {
  std::vector<Query> queries(workload_->begin(), workload_->begin() + 16);
  Protocol protocol;
  RunnerOptions serial;
  serial.parallelism = 1;
  const WorkloadMeasurement baseline =
      MeasureWorkload(db_, nullptr, queries, protocol, serial);
  ASSERT_EQ(baseline.queries.size(), queries.size());
  EXPECT_EQ(baseline.method, "pglite");
  for (const int32_t parallelism : {2, 4, 7}) {
    RunnerOptions options;
    options.parallelism = parallelism;
    const WorkloadMeasurement result =
        MeasureWorkload(db_, nullptr, queries, protocol, options);
    ExpectSameMeasurements(baseline.queries, result.queries,
                           parallelism == 2   ? "N=2"
                           : parallelism == 4 ? "N=4"
                                              : "N=7");
  }
}

TEST_F(ParallelRunnerTest, RepeatedRunsWithSameSeedMatch) {
  std::vector<Query> queries(workload_->begin(), workload_->begin() + 8);
  Protocol protocol;
  RunnerOptions options;
  options.parallelism = 3;
  options.seed = 7;
  const auto first = MeasureWorkload(db_, nullptr, queries, protocol, options);
  const auto second = MeasureWorkload(db_, nullptr, queries, protocol, options);
  ExpectSameMeasurements(first.queries, second.queries, "repeat");
}

TEST_F(ParallelRunnerTest, SeedChangesExecutionNoise) {
  std::vector<Query> queries(workload_->begin(), workload_->begin() + 4);
  Protocol protocol;
  RunnerOptions a;
  a.parallelism = 2;
  a.seed = 1;
  RunnerOptions b = a;
  b.seed = 2;
  const auto first = MeasureWorkload(db_, nullptr, queries, protocol, a);
  const auto second = MeasureWorkload(db_, nullptr, queries, protocol, b);
  // The modeled latency noise derives from the seed; at least one run of
  // one query must differ between two different seeds.
  bool any_difference = false;
  for (size_t i = 0; i < first.queries.size(); ++i) {
    any_difference |=
        first.queries[i].run_execution_ns != second.queries[i].run_execution_ns;
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(ParallelRunnerTest, LqoPathBitIdenticalAcrossWorkerCounts) {
  std::vector<Query> train(workload_->begin(), workload_->begin() + 6);
  std::vector<Query> test(workload_->begin() + 6, workload_->begin() + 14);
  lqo::BaoOptimizer::Options bao_options;
  bao_options.epochs = 1;
  bao_options.train_epochs = 2;
  lqo::BaoOptimizer bao(bao_options);
  bao.Train(train, db_);
  Protocol protocol;
  std::vector<WorkloadMeasurement> results;
  for (const int32_t parallelism : {1, 4}) {
    RunnerOptions options;
    options.parallelism = parallelism;
    results.push_back(MeasureWorkload(db_, &bao, test, protocol, options));
    EXPECT_EQ(results.back().method, "bao");
  }
  ExpectSameMeasurements(results[0].queries, results[1].queries, "bao 1 vs 4");
  // Bao reports its per-hint-set plannings inside planning time.
  for (const auto& m : results[0].queries) EXPECT_GT(m.planning_ns, 0);
}

// Stress case: many more items than workers, so every worker replica is
// reused for many queries in scheduler-determined order. Run under
// -DLQOLAB_SANITIZE=thread this doubles as the data-race check.
TEST_F(ParallelRunnerTest, StressManyQueriesFewWorkers) {
  std::vector<Query> queries;
  for (int round = 0; round < 4; ++round) {
    queries.insert(queries.end(), workload_->begin(), workload_->begin() + 12);
  }
  Protocol protocol;
  protocol.runs = 2;
  protocol.take = 1;
  RunnerOptions serial;
  serial.parallelism = 1;
  RunnerOptions wide;
  wide.parallelism = 3;
  const auto a = MeasureWorkload(db_, nullptr, queries, protocol, serial);
  const auto b = MeasureWorkload(db_, nullptr, queries, protocol, wide);
  ExpectSameMeasurements(a.queries, b.queries, "stress");
  // Repeated copies of a query replay the same canonical state, so the
  // duplicate measurements must match each other too.
  ExpectSameMeasurements(
      std::vector<QueryMeasurement>(b.queries.begin(), b.queries.begin() + 12),
      std::vector<QueryMeasurement>(b.queries.begin() + 12,
                                    b.queries.begin() + 24),
      "stress duplicate rounds");
}

TEST_F(ParallelRunnerTest, RunnerReuseAcrossWorkloads) {
  std::vector<Query> queries(workload_->begin(), workload_->begin() + 6);
  Protocol protocol;
  RunnerOptions options;
  options.parallelism = 2;
  ParallelRunner runner(db_, options);
  EXPECT_EQ(runner.parallelism(), 2);
  EXPECT_EQ(runner.parent(), db_);
  const auto first = MeasureWorkload(&runner, nullptr, queries, protocol);
  const auto second = MeasureWorkload(&runner, nullptr, queries, protocol);
  ExpectSameMeasurements(first.queries, second.queries, "runner reuse");
}

TEST_F(ParallelRunnerTest, CloneSharesStorageAndPlansIdentically) {
  const auto replica = db_->CloneContextForWorker();
  // Tables and indexes are shared, not copied.
  EXPECT_EQ(replica->context().tables()[0].get(), db_->context().tables()[0].get());
  const Query& q = (*workload_)[10];
  const auto a = db_->PlanQuery(q);
  const auto b = replica->PlanQuery(q);
  EXPECT_EQ(a.planning_ns, b.planning_ns);
  EXPECT_DOUBLE_EQ(a.estimated_cost, b.estimated_cost);
  EXPECT_EQ(a.plan.ToString(q), b.plan.ToString(q));
}

TEST_F(ParallelRunnerTest, WorkerMutationNeverLeaksToParentOrSiblings) {
  // Replicas adopt the parent's SharedContext by pointer: same tables, no
  // per-worker copies of immutable state.
  const auto a = db_->CloneContextForWorker();
  const auto b = db_->CloneContextForWorker();
  EXPECT_EQ(&a->context().table(0), &db_->context().table(0));
  EXPECT_EQ(a->context().shared, db_->context().shared);
  EXPECT_EQ(a->context().shared, b->context().shared);

  // Parent buffer counters are invisible to a worker's runs.
  const storage::BufferPool& parent_pool = *db_->context().buffer_pool;
  const int64_t parent_hits = parent_pool.shared_hits();
  const int64_t parent_os_hits = parent_pool.os_hits();
  const int64_t parent_reads = parent_pool.disk_reads();
  const Query& q = (*workload_)[3];
  const auto planned = db_->PlanQuery(q);
  b->BeginQueryReplay(42, q);
  const engine::QueryRun first = b->ExecutePlan(q, planned.plan, 0);
  ASSERT_TRUE(first.status.ok());
  EXPECT_GT(first.pages_accessed, 0);
  EXPECT_EQ(parent_pool.shared_hits(), parent_hits);
  EXPECT_EQ(parent_pool.os_hits(), parent_os_hits);
  EXPECT_EQ(parent_pool.disk_reads(), parent_reads);

  // Heavy churn on sibling `a` must not perturb `b`'s replay determinism.
  for (int i = 0; i < 3; ++i) {
    const Query& other = (*workload_)[static_cast<size_t>(i)];
    a->BeginQueryReplay(99, other);
    a->ExecutePlan(other, a->PlanQuery(other).plan, 0);
  }
  b->BeginQueryReplay(42, q);
  const engine::QueryRun second = b->ExecutePlan(q, planned.plan, 0);
  EXPECT_EQ(first.result_rows, second.result_rows);
  EXPECT_EQ(first.execution_ns, second.execution_ns);
  EXPECT_EQ(first.pages_accessed, second.pages_accessed);
}

TEST_F(ParallelRunnerTest, TrainingBatchesDeterministicAcrossWorkerCounts) {
  std::vector<Query> train(workload_->begin(), workload_->begin() + 6);
  std::vector<Query> test(workload_->begin() + 6, workload_->begin() + 10);
  // Every LQO trained with the replay batch path at different worker
  // counts must land on the same model (same training report, same
  // measurements on the same test set) — the training trajectory may not
  // depend on scheduling.
  for (const std::string& name : testutil::LqoNames()) {
    std::vector<lqo::TrainReport> reports;
    std::vector<WorkloadMeasurement> results;
    for (const int32_t parallelism : {1, 3}) {
      const auto lqo = testutil::SmallLqo(name);
      lqo->set_training_parallelism(parallelism);
      reports.push_back(lqo->Train(train, db_));
      Protocol protocol;
      RunnerOptions measure;
      measure.parallelism = 1;
      results.push_back(
          MeasureWorkload(db_, lqo.get(), test, protocol, measure));
    }
    EXPECT_EQ(reports[0].execution_ns, reports[1].execution_ns) << name;
    EXPECT_EQ(reports[0].training_time_ns, reports[1].training_time_ns)
        << name;
    const std::string label = name + " trained at 1 vs 3 workers";
    ExpectSameMeasurements(results[0].queries, results[1].queries,
                           label.c_str());
  }
}

TEST_F(ParallelRunnerTest, BatchExecutorReplaysWarmupTrajectory) {
  const Query& q = (*workload_)[0];
  const auto planned = db_->PlanQuery(q);
  engine::BatchExecutor batch(db_, 42, 2);
  std::vector<engine::PlanExec> tasks(3);
  for (auto& task : tasks) {
    task.query = &q;
    task.plan = &planned.plan;
  }
  // One batch with three executions of the same query: run_index 0, 1, 2.
  const auto runs = batch.Execute(tasks);
  ASSERT_EQ(runs.size(), 3u);
  // First execution is cold, later ones warm: strictly cheaper.
  EXPECT_GT(runs[0].execution_ns, runs[1].execution_ns);
  // A second batch executor with the same seed replays the same trajectory.
  engine::BatchExecutor replay(db_, 42, 5);
  const auto again = replay.Execute(tasks);
  ASSERT_EQ(again.size(), 3u);
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].execution_ns, again[i].execution_ns) << i;
    EXPECT_EQ(runs[i].result_rows, again[i].result_rows) << i;
  }
}

}  // namespace
}  // namespace lqolab::benchkit
