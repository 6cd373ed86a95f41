// Tests for the extension components: RTOS and Lero reimplementations,
// Neo's fixed-holdout early stopping (§5.1 recommendation), the Ext-JOB
// generalization workload, and the estimator-mode ablation switches.

#include <set>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "exec/oracle.h"
#include "lqo/hybridqo.h"
#include "lqo/lero.h"
#include "lqo/loger.h"
#include "lqo/neo.h"
#include "lqo/rtos.h"
#include "query/sql_workload.h"

namespace lqolab {
namespace {

using engine::Database;
using engine::DbConfig;
using query::Query;

class ExtensionTest : public ::testing::Test {
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
  static std::vector<Query> SmallTrainSet(size_t count = 10) {
    std::vector<Query> train;
    std::set<int32_t> seen;
    for (const Query& q : *workload_) {
      if (seen.insert(q.template_id).second && q.relation_count() <= 9) {
        train.push_back(q);
      }
      if (train.size() >= count) break;
    }
    return train;
  }
  static Database* db_;
  static std::vector<Query>* workload_;
};

Database* ExtensionTest::db_ = nullptr;
std::vector<Query>* ExtensionTest::workload_ = nullptr;

// --- RTOS -------------------------------------------------------------------

TEST_F(ExtensionTest, RtosTrainsAndPlans) {
  lqo::RtosOptimizer::Options options;
  options.iterations = 1;
  options.train_epochs = 3;
  lqo::RtosOptimizer rtos(options);
  const auto train = SmallTrainSet();
  const lqo::TrainReport report = rtos.Train(train, db_);
  EXPECT_GT(report.plans_executed, 0);
  EXPECT_GT(report.nn_updates, 0);
  // The CV metric of Table 1 is computed and finite.
  EXPECT_GE(rtos.last_cv_loss(), 0.0);
  const Query& test = (*workload_)[55];
  const lqo::Prediction prediction = rtos.Plan(test, db_);
  prediction.plan.Validate(test);
  EXPECT_GT(prediction.inference_ns, 0);
}

TEST_F(ExtensionTest, RtosPlansAreEngineCompleted) {
  // RTOS only picks the join ORDER; physical operators come from the
  // engine, so its plans are always left-deep with cost-model scans.
  lqo::RtosOptimizer::Options options;
  options.iterations = 1;
  options.train_epochs = 2;
  lqo::RtosOptimizer rtos(options);
  rtos.Train(SmallTrainSet(6), db_);
  for (size_t i = 0; i < workload_->size(); i += 23) {
    const Query& q = (*workload_)[i];
    const lqo::Prediction prediction = rtos.Plan(q, db_);
    prediction.plan.Validate(q);
    EXPECT_TRUE(prediction.plan.IsLeftDeep()) << q.id;
  }
}

TEST_F(ExtensionTest, OrderHelpers) {
  const Query& q = (*workload_)[10];
  // RepairOrder on the identity preference yields a valid connected order.
  std::vector<query::AliasId> preference;
  for (query::AliasId a = q.relation_count() - 1; a >= 0; --a) {
    preference.push_back(a);
  }
  const auto repaired = lqo::RepairOrder(q, preference);
  ASSERT_EQ(repaired.size(), static_cast<size_t>(q.relation_count()));
  query::AliasMask mask = 0;
  for (query::AliasId a : repaired) {
    EXPECT_TRUE(mask == 0 || (q.AdjacencyMask(a) & mask) != 0);
    mask |= query::MaskOf(a);
  }
  EXPECT_EQ(mask, q.FullMask());
  // ExtendGreedily completes any connected prefix.
  const auto extended = lqo::ExtendGreedily(q, {repaired[0]});
  EXPECT_EQ(extended.size(), static_cast<size_t>(q.relation_count()));
}

// --- Lero -------------------------------------------------------------------

TEST_F(ExtensionTest, LeroGeneratesDiverseCandidatesAndRestoresConfig) {
  const DbConfig before = db_->config();
  lqo::LeroOptimizer::Options options;
  options.epochs = 1;
  options.pair_epochs = 2;
  lqo::LeroOptimizer lero(options);
  const auto train = SmallTrainSet(6);
  const lqo::TrainReport report = lero.Train(train, db_);
  // Candidate generation planned under every scale factor.
  EXPECT_EQ(report.planner_calls,
            static_cast<int64_t>(train.size() *
                                 lqo::LeroOptimizer::kScaleFactors.size()));
  // Executed at least one plan per query, at most one per candidate.
  EXPECT_GE(report.plans_executed, static_cast<int64_t>(train.size()));
  EXPECT_LE(report.plans_executed,
            report.planner_calls);
  EXPECT_EQ(db_->config().join_selectivity_scale,
            before.join_selectivity_scale);
  const Query& test = (*workload_)[60];
  const lqo::Prediction prediction = lero.Plan(test, db_);
  prediction.plan.Validate(test);
  // DBMS-integrated: reports planning, not inference.
  EXPECT_EQ(prediction.inference_ns, 0);
  EXPECT_GT(prediction.planning_ns, 0);
}

TEST_F(ExtensionTest, SelectivityScaleChangesPlans) {
  // The Lero knob really steers the planner.
  const Query& q = (*workload_)[30];
  DbConfig config = DbConfig::OurFramework();
  int distinct = 0;
  std::set<std::string> plans;
  for (double scale : {0.01, 1.0, 100.0}) {
    config.join_selectivity_scale = scale;
    db_->SetConfig(config);
    plans.insert(db_->PlanQuery(q).plan.ToString(q));
  }
  distinct = static_cast<int>(plans.size());
  db_->SetConfig(DbConfig::OurFramework());
  EXPECT_GE(distinct, 2);
}

// --- LOGER -------------------------------------------------------------------

TEST_F(ExtensionTest, LogerBeamSearchProducesValidHintedPlans) {
  lqo::LogerOptimizer::Options options;
  options.iterations = 1;
  options.train_epochs = 3;
  lqo::LogerOptimizer loger(options);
  const auto train = SmallTrainSet(8);
  const lqo::TrainReport report = loger.Train(train, db_);
  EXPECT_GT(report.plans_executed, 0);
  EXPECT_GT(report.nn_evals, 0);
  for (size_t i = 0; i < workload_->size(); i += 31) {
    const Query& q = (*workload_)[i];
    const lqo::Prediction prediction = loger.Plan(q, db_);
    prediction.plan.Validate(q);
    // LOGER's action space picks relation AND join type per step, so its
    // trees stay linear (left-deep) like RTOS's.
    EXPECT_TRUE(prediction.plan.IsLeftDeep()) << q.id;
    EXPECT_GT(prediction.inference_ns, 0) << q.id;
  }
}

// --- HybridQO ------------------------------------------------------------------

TEST_F(ExtensionTest, HybridQoMctsCandidatesAndChainedModels) {
  lqo::HybridQoOptimizer::Options options;
  options.epochs = 1;
  options.train_epochs = 3;
  options.mcts_iterations = 20;
  lqo::HybridQoOptimizer hybrid(options);
  const auto train = SmallTrainSet(6);
  const lqo::TrainReport report = hybrid.Train(train, db_);
  // The cost side shows up as planner/cost calls (MCTS rollouts).
  EXPECT_GT(report.planner_calls, static_cast<int64_t>(train.size()));
  EXPECT_GT(report.nn_updates, 0);
  const Query& test = (*workload_)[65];
  const lqo::Prediction prediction = hybrid.Plan(test, db_);
  prediction.plan.Validate(test);
  // Inference includes both MCTS rollouts and latency-net evaluations.
  EXPECT_GT(prediction.inference_ns, 0);
  EXPECT_GT(prediction.nn_evals, 0);
}

TEST_F(ExtensionTest, AllEightTable1RowsAreLiveOrSurvey) {
  const auto rows = lqo::Table1EncodingSpecs();
  ASSERT_EQ(rows.size(), 8u);
  // All eight methods now have live implementations backing their rows.
  EXPECT_EQ(rows[0].name, "Neo");
  EXPECT_EQ(rows[1].name, "RTOS");
  EXPECT_EQ(rows[2].name, "Bao");
  EXPECT_EQ(rows[3].name, "Balsa");
  EXPECT_EQ(rows[4].name, "Lero");
  EXPECT_EQ(rows[5].name, "LEON");
  EXPECT_EQ(rows[6].name, "LOGER");
  EXPECT_EQ(rows[7].name, "HybridQO");
  // LOGER outputs hints, HybridQO full plans (Table 1).
  EXPECT_EQ(rows[6].model_output, "Hint");
  EXPECT_EQ(rows[7].model_output, "Plan");
}

// --- Neo fixed-holdout early stopping ---------------------------------------

TEST_F(ExtensionTest, NeoHoldoutEarlyStoppingTracksLosses) {
  lqo::NeoOptimizer::Options options;
  options.iterations = 3;
  options.train_epochs = 3;
  options.holdout_fraction = 0.25;
  options.patience = 1;
  lqo::NeoOptimizer neo(options);
  const auto train = SmallTrainSet(12);
  neo.Train(train, db_);
  EXPECT_FALSE(neo.holdout_losses().empty());
  EXPECT_LE(neo.iterations_run(), options.iterations);
  EXPECT_GE(neo.iterations_run(), 1);
  for (double loss : neo.holdout_losses()) EXPECT_GE(loss, 0.0);
}

TEST_F(ExtensionTest, NeoWithoutHoldoutRunsAllIterations) {
  lqo::NeoOptimizer::Options options;
  options.iterations = 2;
  options.train_epochs = 2;
  options.holdout_fraction = 0.0;
  lqo::NeoOptimizer neo(options);
  neo.Train(SmallTrainSet(6), db_);
  EXPECT_EQ(neo.iterations_run(), 2);
  EXPECT_TRUE(neo.holdout_losses().empty());
}

// --- Ext-JOB workload --------------------------------------------------------

TEST_F(ExtensionTest, ExtJobShapeAndNovelty) {
  const auto ext = query::LoadWorkload("ext_job", db_->schema());
  EXPECT_EQ(ext.size(), 20u);
  std::set<std::string> ids;
  for (const auto& q : ext) {
    EXPECT_TRUE(q.IsConnected(q.FullMask())) << q.id;
    EXPECT_GE(q.template_id, 101);
    ids.insert(q.id);
  }
  EXPECT_EQ(ids.size(), ext.size());
  // Structural novelty: no Ext-JOB template shares its (sorted) table
  // multiset AND edge signature with a JOB template.
  auto signature = [](const Query& q) {
    std::multiset<catalog::TableId> tables;
    for (const auto& rel : q.relations) tables.insert(rel.table);
    std::multiset<std::string> edges;
    for (const auto& e : q.edges) {
      edges.insert(std::to_string(e.left_alias) + "." +
                   std::to_string(e.left_column) + "=" +
                   std::to_string(e.right_alias) + "." +
                   std::to_string(e.right_column));
    }
    std::string out;
    for (auto t : tables) out += std::to_string(t) + ",";
    out += "|";
    for (const auto& e : edges) out += e + ";";
    return out;
  };
  std::set<std::string> job_signatures;
  for (const auto& q : *workload_) job_signatures.insert(signature(q));
  for (const auto& q : query::LoadWorkload("ext_job", db_->schema())) {
    EXPECT_EQ(job_signatures.count(signature(q)), 0u) << q.id;
  }
}

TEST_F(ExtensionTest, ExtJobRunsOnTheEngine) {
  const auto ext = query::LoadWorkload("ext_job", db_->schema());
  int non_empty = 0;
  for (const auto& q : ext) {
    const auto run = db_->Run(q);
    EXPECT_FALSE(run.timed_out) << q.id;
    if (run.result_rows > 0) ++non_empty;
  }
  EXPECT_GT(non_empty, 5);
}

// --- Estimator modes ----------------------------------------------------------

TEST_F(ExtensionTest, EstimatorModesDiffer) {
  auto estimate_under = [&](const Query& q, engine::EstimatorMode mode) {
    DbConfig config = DbConfig::OurFramework();
    config.estimator_mode = mode;
    db_->SetConfig(config);
    return db_->planner().estimator().EstimateJoinRows(q, q.FullMask());
  };
  int strictly_smaller = 0;
  for (size_t i = 0; i < workload_->size(); i += 4) {
    const Query& q = (*workload_)[i];
    const double full = estimate_under(q, engine::EstimatorMode::kFull);
    const double naive =
        estimate_under(q, engine::EstimatorMode::kNaiveProduct);
    ASSERT_GE(full, 1.0) << q.id;
    ASSERT_GE(naive, 1.0) << q.id;
    // The naive product can only collapse estimates (per-step clamping in
    // the full estimator keeps them larger or equal).
    EXPECT_LE(naive, full * 1.001) << q.id;
    if (naive < full * 0.999) ++strictly_smaller;
  }
  db_->SetConfig(DbConfig::OurFramework());
  EXPECT_GT(strictly_smaller, 3);
}

TEST_F(ExtensionTest, NoMcvModeIgnoresSkew) {
  // On a Zipf-skewed join key, dropping the MCV matching changes the edge
  // selectivity.
  const Query q = query::LoadWorkloadQuery("job", "3a", db_->schema());
  DbConfig config = DbConfig::OurFramework();
  config.estimator_mode = engine::EstimatorMode::kFull;
  db_->SetConfig(config);
  const double with_mcv =
      db_->planner().estimator().EdgeSelectivity(q, q.edges[1]);
  config.estimator_mode = engine::EstimatorMode::kNoMcvJoins;
  db_->SetConfig(config);
  const double without_mcv =
      db_->planner().estimator().EdgeSelectivity(q, q.edges[1]);
  db_->SetConfig(DbConfig::OurFramework());
  EXPECT_NE(with_mcv, without_mcv);
}

}  // namespace
}  // namespace lqolab
