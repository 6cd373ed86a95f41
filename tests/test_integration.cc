// End-to-end integration tests tying the whole system together: the
// engine's behaviours that the paper's experiments rely on.

#include <cmath>

#include <gtest/gtest.h>

#include "benchkit/measurement.h"
#include "benchkit/splits.h"
#include "datagen/imdb_generator.h"
#include "engine/database.h"
#include "lqo/bao.h"
#include "optimizer/physical_plan.h"
#include "query/sql_workload.h"
#include "util/statistics.h"

namespace lqolab {
namespace {

using engine::Database;
using engine::DbConfig;
using optimizer::JoinAlgo;
using optimizer::PhysicalPlan;
using optimizer::ScanType;
using query::Query;

std::unique_ptr<Database> MakeDb(DbConfig config = DbConfig::OurFramework(),
                                 double scale = 0.05, uint64_t seed = 42) {
  Database::Options options;
  options.profile = datagen::ScaleProfile::Medium().Scaled(scale);
  options.seed = seed;
  options.config = config;
  return Database::CreateImdb(options);
}

TEST(Integration, NativePlanBeatsPathologicalPlan) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "8a", db->schema());
  const auto native = db->PlanQuery(q);
  // Pathological: pure nested loops in FROM order with seq scans.
  PhysicalPlan bad;
  int32_t current = bad.AddScan(0, ScanType::kSeq);
  query::AliasMask mask = query::MaskOf(0);
  for (query::AliasId a = 1; a < q.relation_count(); ++a) {
    // FROM order in our templates is connected.
    ASSERT_TRUE(q.HasEdgeBetween(mask, query::MaskOf(a)));
    const int32_t scan = bad.AddScan(a, ScanType::kSeq);
    current = bad.AddJoin(JoinAlgo::kNestLoop, current, scan);
    mask |= query::MaskOf(a);
  }
  // Warm both plans to hot-cache state, then compare.
  db->ExecutePlan(q, native.plan);
  db->ExecutePlan(q, native.plan);
  db->ExecutePlan(q, bad);
  const auto good_run = db->ExecutePlan(q, native.plan);
  const auto bad_run = db->ExecutePlan(q, bad);
  EXPECT_LT(good_run.execution_ns * 3, bad_run.execution_ns);
  if (!bad_run.timed_out) {
    EXPECT_EQ(good_run.result_rows, bad_run.result_rows);
  }
}

TEST(Integration, CacheConvergenceShape) {
  // Fig. 4's shape: large drop from run 1 to 2, small from 2 to 3, flat
  // afterwards (averaged over queries).
  auto db = MakeDb();
  const auto workload = query::LoadWorkload("job", db->schema());
  db->DropCaches();
  std::vector<double> drop1;
  std::vector<double> drop2;
  std::vector<double> drop3;
  for (size_t i = 0; i < workload.size(); i += 6) {
    const auto planned = db->PlanQuery(workload[i]);
    std::vector<double> runs;
    for (int r = 0; r < 5; ++r) {
      runs.push_back(static_cast<double>(
          db->ExecutePlan(workload[i], planned.plan).execution_ns));
    }
    drop1.push_back((runs[0] - runs[1]) / runs[0]);
    drop2.push_back((runs[1] - runs[2]) / runs[0]);
    drop3.push_back((runs[2] - runs[3]) / runs[0]);
  }
  const double mean1 = util::Mean(drop1);
  const double mean2 = util::Mean(drop2);
  const double mean3 = util::Mean(drop3);
  EXPECT_GT(mean1, 0.05);            // noticeable first-run drop
  EXPECT_GT(mean1, mean2 * 3);       // much larger than the second drop
  EXPECT_GT(mean2, 0.0);             // still positive at k=2
  EXPECT_LT(std::fabs(mean3), 0.02); // flat afterwards
}

TEST(Integration, ScanAblationChangesPlans) {
  // Disabling bitmap+tid scans (Balsa/LEON style) must change at least one
  // chosen access path across the workload (Fig. 8's mechanism).
  auto db = MakeDb();
  const auto workload = query::LoadWorkload("job", db->schema());
  DbConfig no_bitmap = DbConfig::OurFramework();
  no_bitmap.enable_bitmapscan = false;
  no_bitmap.enable_tidscan = false;
  int changed = 0;
  for (size_t i = 0; i < workload.size(); i += 5) {
    db->SetConfig(DbConfig::OurFramework());
    const std::string with = db->PlanQuery(workload[i]).plan.ToString(workload[i]);
    db->SetConfig(no_bitmap);
    const std::string without =
        db->PlanQuery(workload[i]).plan.ToString(workload[i]);
    if (with != without) ++changed;
    EXPECT_EQ(without.find("BitmapScan"), std::string::npos) << workload[i].id;
  }
  EXPECT_GT(changed, 0);
}

TEST(Integration, GeqoAblationAffectsLargeQueries) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "29a", db->schema());
  const auto with_geqo = db->PlanQuery(q);
  EXPECT_TRUE(with_geqo.used_geqo);
  DbConfig no_geqo = DbConfig::OurFramework();
  no_geqo.geqo = false;
  db->SetConfig(no_geqo);
  const auto without_geqo = db->PlanQuery(q);
  EXPECT_FALSE(without_geqo.used_geqo);
  without_geqo.plan.Validate(q);
  // Exhaustive DP cannot be worse than GEQO on estimated cost.
  EXPECT_LE(without_geqo.estimated_cost, with_geqo.estimated_cost * 1.0001);
}

TEST(Integration, CovariateShiftSetupWorks) {
  // Fig. 7's setup: train/evaluate structures against both the full and the
  // 50% database; the same workload binds against both.
  auto full = MakeDb();
  auto half_tables = datagen::SubsampleTitleCascade(
      full->schema(), full->context().tables(), 0.5, 7);
  Database::Options options;
  options.seed = 42;
  auto half = Database::FromTables(options, std::move(half_tables));
  const Query q = query::LoadWorkloadQuery("job", "3a", full->schema());
  const auto run_full = full->Run(q);
  const auto run_half = half->Run(q);
  EXPECT_GT(run_full.result_rows, 0);
  EXPECT_LT(run_half.result_rows, run_full.result_rows);
}

TEST(Integration, ExplainAnalyzeRendersEverything) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "1a", db->schema());
  const std::string text = db->ExplainAnalyze(q);
  EXPECT_NE(text.find("EXPLAIN ANALYZE 1a"), std::string::npos);
  EXPECT_NE(text.find("est rows="), std::string::npos);
  EXPECT_NE(text.find("actual rows="), std::string::npos);
  EXPECT_NE(text.find("Buffers: shared hit="), std::string::npos);
  EXPECT_NE(text.find("Planning Time:"), std::string::npos);
  EXPECT_NE(text.find("Execution Time:"), std::string::npos);
}

TEST(Integration, EndToEndSplitEvaluation) {
  // A miniature Fig. 5 cell: train Bao on a split, evaluate both methods on
  // the test set; measurements are complete and well-formed.
  auto db = MakeDb();
  const auto workload = query::LoadWorkload("job", db->schema());
  const auto split =
      benchkit::SampleSplit(workload, benchkit::SplitKind::kRandom, 0.2, 3);
  const auto train = benchkit::SelectQueries(workload, split.train_indices);
  const auto test = benchkit::SelectQueries(workload, split.test_indices);

  lqo::BaoOptimizer::Options options;
  options.epochs = 1;
  options.train_epochs = 3;
  lqo::BaoOptimizer bao(options);
  const auto report = bao.Train(train, db.get());
  EXPECT_GT(report.training_time_ns, 0);

  const benchkit::Protocol protocol;
  const auto native = benchkit::MeasureWorkloadNative(db.get(), test, protocol);
  const auto learned =
      benchkit::MeasureWorkloadLqo(db.get(), &bao, test, protocol);
  ASSERT_EQ(native.queries.size(), test.size());
  ASSERT_EQ(learned.queries.size(), test.size());
  EXPECT_GT(native.total_execution_ns(), 0);
  EXPECT_GT(learned.total_execution_ns(), 0);
  // Bao's end-to-end time includes hint-set planning overhead.
  EXPECT_GT(learned.total_planning_ns(), native.total_planning_ns());
}

TEST(Integration, MemoryConfigChangesColdBehaviour) {
  // Larger shared buffers -> fewer disk reads across a workload pass.
  DbConfig small = DbConfig::Default();   // 128 MB shared buffers (scaled)
  DbConfig large = DbConfig::BalsaLeon(); // 32 GB shared buffers (scaled)
  large.enable_bitmapscan = true;         // isolate the memory effect
  large.enable_tidscan = true;
  large.geqo = true;
  auto db_small = MakeDb(small, 0.1);
  auto db_large = MakeDb(large, 0.1);
  const auto workload = query::LoadWorkload("job", db_small->schema());
  util::VirtualNanos total_small = 0;
  util::VirtualNanos total_large = 0;
  for (size_t i = 0; i < workload.size(); i += 10) {
    // Two passes; the second benefits from whatever stayed cached.
    db_small->Run(workload[i]);
    db_large->Run(workload[i]);
    total_small += db_small->Run(workload[i]).execution_ns;
    total_large += db_large->Run(workload[i]).execution_ns;
  }
  EXPECT_LE(total_large, total_small);
}

TEST(Integration, WarmupStateSurvivesConfigSwitchButNotResize) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "2a", db->schema());
  db->Run(q);
  EXPECT_EQ(db->RunCount(q), 1);
  // Planner-only config change keeps execution state.
  DbConfig tweak = db->config();
  tweak.enable_mergejoin = false;
  db->SetConfig(tweak);
  EXPECT_EQ(db->RunCount(q), 1);
  // Memory change clears it (cache resize = cold start).
  tweak.shared_buffers_mb *= 2;
  db->SetConfig(tweak);
  EXPECT_EQ(db->RunCount(q), 0);
}

}  // namespace
}  // namespace lqolab
