// Tests for the benchmarking framework: split samplers (Fig. 3) and the
// measurement protocol (§7.3).

#include <set>

#include <gtest/gtest.h>

#include "benchkit/measurement.h"
#include "benchkit/splits.h"
#include "engine/database.h"
#include "lqo/bao.h"
#include "query/sql_workload.h"

namespace lqolab::benchkit {
namespace {

using engine::Database;
using query::Query;

class SplitTest : public ::testing::Test {
 protected:
  SplitTest()
      : schema_(catalog::BuildImdbSchema()),
        workload_(query::LoadWorkload("job", schema_)) {}
  catalog::Schema schema_;
  std::vector<Query> workload_;
};

TEST_F(SplitTest, DisjointAndCovering) {
  for (SplitKind kind : {SplitKind::kLeaveOneOut, SplitKind::kRandom,
                         SplitKind::kBaseQuery}) {
    const Split split = SampleSplit(workload_, kind, 0.2, 1);
    std::set<int32_t> all;
    for (int32_t i : split.train_indices) all.insert(i);
    for (int32_t i : split.test_indices) {
      EXPECT_TRUE(all.insert(i).second) << SplitKindName(kind);
    }
    EXPECT_EQ(all.size(), workload_.size()) << SplitKindName(kind);
  }
}

TEST_F(SplitTest, LeaveOneOutExactlyOnePerFamily) {
  const Split split =
      SampleSplit(workload_, SplitKind::kLeaveOneOut, 0.2, 3);
  std::map<int32_t, int32_t> per_family;
  for (int32_t i : split.test_indices) {
    ++per_family[workload_[static_cast<size_t>(i)].template_id];
  }
  EXPECT_EQ(per_family.size(), 33u);  // JOB-lite's template count
  for (const auto& [family, count] : per_family) {
    EXPECT_EQ(count, 1) << family;
  }
}

TEST_F(SplitTest, RandomSplitHoldsOutTwentyPercent) {
  const Split split = SampleSplit(workload_, SplitKind::kRandom, 0.2, 5);
  EXPECT_NEAR(static_cast<double>(split.test_indices.size()) /
                  static_cast<double>(workload_.size()),
              0.2, 0.02);
}

TEST_F(SplitTest, BaseQueryKeepsFamiliesIntact) {
  const Split split = SampleSplit(workload_, SplitKind::kBaseQuery, 0.2, 7);
  std::set<int32_t> test_families;
  for (int32_t i : split.test_indices) {
    test_families.insert(workload_[static_cast<size_t>(i)].template_id);
  }
  // No family straddles the boundary.
  for (int32_t i : split.train_indices) {
    EXPECT_EQ(test_families.count(
                  workload_[static_cast<size_t>(i)].template_id),
              0u);
  }
  EXPECT_NEAR(static_cast<double>(split.test_indices.size()) /
                  static_cast<double>(workload_.size()),
              0.2, 0.08);
}

TEST_F(SplitTest, DeterministicBySeed) {
  const Split a = SampleSplit(workload_, SplitKind::kRandom, 0.2, 9);
  const Split b = SampleSplit(workload_, SplitKind::kRandom, 0.2, 9);
  const Split c = SampleSplit(workload_, SplitKind::kRandom, 0.2, 10);
  EXPECT_EQ(a.test_indices, b.test_indices);
  EXPECT_NE(a.test_indices, c.test_indices);
}

TEST_F(SplitTest, PaperSplitsGrid) {
  const auto splits = PaperSplits(workload_);
  ASSERT_EQ(splits.size(), 9u);
  std::set<std::string> names;
  for (const auto& split : splits) names.insert(split.name);
  EXPECT_EQ(names.size(), 9u);
  EXPECT_TRUE(names.count("leave_one_out_1"));
  EXPECT_TRUE(names.count("base_query_3"));
}

TEST_F(SplitTest, SelectQueriesMaterializes) {
  const Split split = SampleSplit(workload_, SplitKind::kRandom, 0.2, 2);
  const auto test = SelectQueries(workload_, split.test_indices);
  ASSERT_EQ(test.size(), split.test_indices.size());
  EXPECT_EQ(test[0].id,
            workload_[static_cast<size_t>(split.test_indices[0])].id);
}

class MeasurementTest : public ::testing::Test {
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
  static Database* db_;
  static std::vector<Query>* workload_;
};

Database* MeasurementTest::db_ = nullptr;
std::vector<Query>* MeasurementTest::workload_ = nullptr;

TEST_F(MeasurementTest, ProtocolRecordsAllRuns) {
  Protocol protocol;
  protocol.runs = 5;
  protocol.take = 2;
  db_->DropCaches();
  const QueryMeasurement m = MeasureNative(db_, (*workload_)[0], protocol);
  ASSERT_EQ(m.run_execution_ns.size(), 5u);
  EXPECT_EQ(m.execution_ns, m.run_execution_ns[2]);
  EXPECT_GT(m.planning_ns, 0);
  EXPECT_EQ(m.joins, (*workload_)[0].join_count());
}

TEST_F(MeasurementTest, ThirdRunNotSlowerThanFirstCold) {
  db_->DropCaches();
  Protocol protocol;
  const QueryMeasurement m = MeasureNative(db_, (*workload_)[7], protocol);
  EXPECT_LT(m.run_execution_ns[2], m.run_execution_ns[0]);
}

TEST_F(MeasurementTest, WorkloadAggregates) {
  Protocol protocol;
  std::vector<Query> queries((*workload_).begin(), (*workload_).begin() + 5);
  const WorkloadMeasurement wm =
      MeasureWorkloadNative(db_, queries, protocol);
  ASSERT_EQ(wm.queries.size(), 5u);
  EXPECT_EQ(wm.method, "pglite");
  util::VirtualNanos expected_exec = 0;
  for (const auto& q : wm.queries) expected_exec += q.execution_ns;
  EXPECT_EQ(wm.total_execution_ns(), expected_exec);
  EXPECT_EQ(wm.total_end_to_end_ns(),
            wm.total_inference_ns() + wm.total_planning_ns() +
                wm.total_execution_ns());
  EXPECT_EQ(wm.timeout_count(), 0);
}

TEST_F(MeasurementTest, LqoMeasurementCarriesInferenceTime) {
  lqo::BaoOptimizer::Options options;
  options.epochs = 1;
  options.train_epochs = 2;
  lqo::BaoOptimizer bao(options);
  std::vector<Query> train((*workload_).begin(), (*workload_).begin() + 6);
  bao.Train(train, db_);
  Protocol protocol;
  const QueryMeasurement m = MeasureLqo(db_, &bao, (*workload_)[20], protocol);
  // Bao reports inside planning time.
  EXPECT_GT(m.planning_ns, 0);
  EXPECT_EQ(m.run_execution_ns.size(), 3u);
}

TEST_F(MeasurementTest, ProtocolValidationAborts) {
  // Regression: Protocol{runs, take} used to accept a negative take and
  // silently measure nothing. All three invariants are CHECKed at the
  // shared run loop, so every measurement entry point trips them.
  Protocol negative_take;
  negative_take.take = -1;
  EXPECT_DEATH(MeasureNative(db_, (*workload_)[0], negative_take), "take");
  Protocol take_out_of_range;
  take_out_of_range.runs = 3;
  take_out_of_range.take = 3;
  EXPECT_DEATH(MeasureNative(db_, (*workload_)[0], take_out_of_range),
               "take");
  Protocol no_runs;
  no_runs.runs = 0;
  EXPECT_DEATH(MeasureNative(db_, (*workload_)[0], no_runs), "runs");
}

TEST_F(MeasurementTest, Ci95FromExtraRuns) {
  Protocol protocol;
  protocol.runs = 6;
  protocol.take = 2;
  std::vector<Query> queries((*workload_).begin(), (*workload_).begin() + 4);
  const WorkloadMeasurement wm =
      MeasureWorkloadNative(db_, queries, protocol);
  EXPECT_GT(wm.execution_ci95_ns(), 0.0);
}

}  // namespace
}  // namespace lqolab::benchkit
