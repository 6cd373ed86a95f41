// Tests for the learned-query-optimizer layer: encodings (incl. the
// invariance property of §4.1), value networks, plan search, and the four
// method reimplementations.

#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "lqo/balsa.h"
#include "lqo/bao.h"
#include "lqo/encoding.h"
#include "lqo/leon.h"
#include "lqo/neo.h"
#include "lqo/plan_search.h"
#include "lqo/value_net.h"
#include "query/sql_workload.h"

#include "digest.h"
#include "small_lqos.h"

namespace lqolab::lqo {
namespace {

using engine::Database;
using engine::DbConfig;
using optimizer::JoinAlgo;
using optimizer::PhysicalPlan;
using optimizer::ScanType;
using query::Query;

class LqoTest : public ::testing::Test {
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
  /// A small train set (first variant of the first 12 templates).
  static std::vector<Query> SmallTrainSet() {
    std::vector<Query> train;
    std::set<int32_t> seen;
    for (const Query& q : *workload_) {
      if (seen.insert(q.template_id).second && q.relation_count() <= 9) {
        train.push_back(q);
      }
      if (train.size() >= 12) break;
    }
    return train;
  }
  static Database* db_;
  static std::vector<Query>* workload_;
};

Database* LqoTest::db_ = nullptr;
std::vector<Query>* LqoTest::workload_ = nullptr;

TEST_F(LqoTest, QueryEncoderShapeAndContent) {
  const QueryEncoder encoder(&db_->context(), &db_->planner().estimator());
  const Query& q = (*workload_)[0];
  const auto features = encoder.Encode(q);
  ASSERT_EQ(static_cast<int32_t>(features.size()), encoder.dim());
  // Table-count slots: exactly the query's tables are non-zero.
  const int32_t tables = db_->schema().table_count();
  int32_t nonzero = 0;
  for (int32_t t = 0; t < tables; ++t) {
    if (features[static_cast<size_t>(t)] > 0) ++nonzero;
  }
  std::set<catalog::TableId> distinct;
  for (const auto& rel : q.relations) distinct.insert(rel.table);
  EXPECT_EQ(nonzero, static_cast<int32_t>(distinct.size()));
}

TEST_F(LqoTest, PlanEncoderDims) {
  const PlanEncoder full(&db_->context(), &db_->planner().estimator(),
                         PlanEncodingStyle::kWithTableIdentity);
  const PlanEncoder bao(&db_->context(), &db_->planner().estimator(),
                        PlanEncodingStyle::kCardinalityOnly);
  EXPECT_EQ(full.node_dim(), 9 + db_->schema().table_count());
  EXPECT_EQ(bao.node_dim(), 10);
}

TEST_F(LqoTest, BaoEncodingViolatesInvariance) {
  // The paper's §4.1 thought experiment: two scans of DIFFERENT tables with
  // (near-)identical cardinalities encode identically under Bao's
  // cardinality-only encoding but differently under the full encoding.
  Query q;
  q.id = "invariance_test";
  q.relations = {{catalog::imdb::kMovieInfo, "mi"},
                 {catalog::imdb::kTitle, "t"},
                 {catalog::imdb::kCastInfo, "ci"}};
  q.edges = {{1, 0, 0, 1}, {1, 0, 2, 2}};
  PhysicalPlan scan_mi;
  scan_mi.AddScan(0, ScanType::kSeq);
  PhysicalPlan scan_t;
  scan_t.AddScan(1, ScanType::kSeq);

  const PlanEncoder bao(&db_->context(), &db_->planner().estimator(),
                        PlanEncodingStyle::kCardinalityOnly);
  const PlanEncoder full(&db_->context(), &db_->planner().estimator(),
                         PlanEncodingStyle::kWithTableIdentity);
  const auto bao_mi = bao.EncodeNode(q, scan_mi, 0);
  const auto bao_t = bao.EncodeNode(q, scan_t, 0);
  const auto full_mi = full.EncodeNode(q, scan_mi, 0);
  const auto full_t = full.EncodeNode(q, scan_t, 0);
  // Bao: only the cardinality slot differs (same operator one-hots, no
  // table identity). Full: the table one-hot differs structurally.
  int bao_diffs = 0;
  for (size_t i = 0; i < bao_mi.size(); ++i) {
    if (bao_mi[i] != bao_t[i]) ++bao_diffs;
  }
  EXPECT_LE(bao_diffs, 2);  // at most the two cardinality-derived slots
  bool full_identity_differs = false;
  for (size_t i = 9; i < full_mi.size(); ++i) {
    if (full_mi[i] != full_t[i]) full_identity_differs = true;
  }
  EXPECT_TRUE(full_identity_differs);
}

TEST_F(LqoTest, LatencyTargetRoundTrip) {
  for (util::VirtualNanos ns :
       {int64_t{1'000'000}, int64_t{50'000'000}, int64_t{3'000'000'000}}) {
    const float target = LatencyToTarget(ns);
    const util::VirtualNanos back = TargetToLatency(target);
    EXPECT_NEAR(static_cast<double>(back), static_cast<double>(ns),
                0.02 * static_cast<double>(ns));
  }
  EXPECT_LT(LatencyToTarget(1'000'000), LatencyToTarget(1'000'000'000));
}

TEST_F(LqoTest, ValueNetTrainsTowardTargets) {
  const PlanEncoder encoder(&db_->context(), &db_->planner().estimator(),
                            PlanEncodingStyle::kWithTableIdentity);
  const QueryEncoder qencoder(&db_->context(), &db_->planner().estimator());
  TreeValueNet net(encoder.node_dim(), qencoder.dim(), 32, 7);
  ml::Adam adam(net.Params(), 1e-3);
  const Query& q = (*workload_)[0];
  const auto planned = db_->PlanQuery(q);
  const auto qenc = qencoder.Encode(q);
  const float target = 0.8f;
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 60; ++step) {
    const double loss = net.TrainRegression(qenc, q, planned.plan, encoder,
                                            target, &adam);
    if (step == 0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
  EXPECT_NEAR(net.Score(qenc, q, planned.plan, encoder), target, 0.3);
  EXPECT_GT(net.eval_count(), 0);
}

TEST_F(LqoTest, ValueNetPairwiseLearnsOrder) {
  const PlanEncoder encoder(&db_->context(), &db_->planner().estimator(),
                            PlanEncodingStyle::kWithTableIdentity);
  const QueryEncoder qencoder(&db_->context(), &db_->planner().estimator());
  TreeValueNet net(encoder.node_dim(), qencoder.dim(), 32, 8);
  ml::Adam adam(net.Params(), 2e-3);
  const Query& q = (*workload_)[10];
  const auto planned = db_->PlanQuery(q);
  uint64_t rng_state = 5;
  const PhysicalPlan random =
      RandomPlan(q, db_->planner().cost_model(), &rng_state);
  const auto qenc = qencoder.Encode(q);
  for (int step = 0; step < 80; ++step) {
    net.TrainPairwise(qenc, q, planned.plan, random, encoder, &adam);
  }
  EXPECT_LT(net.Score(qenc, q, planned.plan, encoder),
            net.Score(qenc, q, random, encoder));
}

TEST_F(LqoTest, CombinePlansRebasesIndices) {
  PhysicalPlan left;
  left.AddScan(0, ScanType::kSeq);
  PhysicalPlan right;
  const int32_t a = right.AddScan(1, ScanType::kSeq);
  const int32_t b = right.AddScan(2, ScanType::kSeq);
  right.AddJoin(JoinAlgo::kHash, a, b);
  const PhysicalPlan combined = CombinePlans(left, right, JoinAlgo::kMerge);
  EXPECT_EQ(combined.nodes.size(), 5u);
  EXPECT_EQ(combined.node(combined.root).mask, 0b111u);
  EXPECT_EQ(combined.node(combined.root).algo, JoinAlgo::kMerge);
}

TEST_F(LqoTest, GreedySearchProducesValidPlans) {
  for (size_t i = 0; i < workload_->size(); i += 19) {
    const Query& q = (*workload_)[i];
    const SearchResult result = GreedyBottomUpSearch(
        q, db_->planner().cost_model(), [&](const PhysicalPlan& plan) {
          return db_->planner().EstimatePlanCost(q, plan);
        });
    result.plan.Validate(q);
    EXPECT_GT(result.evals, 0) << q.id;
  }
}

TEST_F(LqoTest, GreedySearchWithCostScorerNearDpQuality) {
  // Greedy search guided by the true cost model should be within a modest
  // factor of DP's estimated cost on small queries.
  const Query q = query::LoadWorkloadQuery("job", "3a", db_->schema());
  const SearchResult greedy = GreedyBottomUpSearch(
      q, db_->planner().cost_model(), [&](const PhysicalPlan& plan) {
        return db_->planner().EstimatePlanCost(q, plan);
      });
  const auto dp = db_->planner().PlanDynamicProgramming(q, true);
  const double greedy_cost = db_->planner().EstimatePlanCost(q, greedy.plan);
  EXPECT_LT(greedy_cost, dp.estimated_cost * 20.0);
}

TEST_F(LqoTest, RandomPlanValidAndDiverse) {
  const Query& q = (*workload_)[30];
  uint64_t state = 11;
  std::set<std::string> shapes;
  for (int i = 0; i < 10; ++i) {
    const PhysicalPlan plan =
        RandomPlan(q, db_->planner().cost_model(), &state);
    plan.Validate(q);
    shapes.insert(plan.ToString(q));
  }
  EXPECT_GT(shapes.size(), 3u);
}

TEST_F(LqoTest, BaoHintSetsRestoreConfig) {
  const DbConfig before = db_->config();
  BaoOptimizer bao;
  const Query& q = (*workload_)[2];
  const Prediction prediction = bao.Plan(q, db_);
  prediction.plan.Validate(q);
  EXPECT_EQ(db_->config().enable_nestloop, before.enable_nestloop);
  EXPECT_EQ(db_->config().enable_hashjoin, before.enable_hashjoin);
  // Bao reports its time inside planning (DBMS integration).
  EXPECT_EQ(prediction.inference_ns, 0);
  EXPECT_GT(prediction.planning_ns, 0);
}

TEST_F(LqoTest, DefaultHintSetsDisableDistinctOperators) {
  const auto sets = DefaultHintSets();
  ASSERT_EQ(sets.size(), 6u);
  std::set<std::string> names;
  for (const auto& hs : sets) names.insert(hs.name);
  EXPECT_EQ(names.size(), sets.size());
  EXPECT_TRUE(sets[0].enable_nestloop && sets[0].enable_hashjoin);
  EXPECT_FALSE(sets[1].enable_nestloop);
}

TEST_F(LqoTest, BaoTrainsAndPlans) {
  BaoOptimizer::Options options;
  options.epochs = 2;
  options.train_epochs = 4;
  BaoOptimizer bao(options);
  const auto train = SmallTrainSet();
  const TrainReport report = bao.Train(train, db_);
  EXPECT_EQ(report.plans_executed,
            static_cast<int64_t>(train.size()) * options.epochs);
  EXPECT_GT(report.nn_updates, 0);
  EXPECT_GT(report.training_time_ns, 0);
  const Prediction prediction = bao.Plan((*workload_)[40], db_);
  prediction.plan.Validate((*workload_)[40]);
}

TEST_F(LqoTest, NeoTrainsAndPlans) {
  NeoOptimizer::Options options;
  options.iterations = 1;
  options.train_epochs = 3;
  NeoOptimizer neo(options);
  const auto train = SmallTrainSet();
  const TrainReport report = neo.Train(train, db_);
  // Bootstrap + one on-policy pass.
  EXPECT_EQ(report.plans_executed, static_cast<int64_t>(train.size()) * 2);
  EXPECT_GT(report.nn_evals, 0);
  const Query& test = (*workload_)[50];
  const Prediction prediction = neo.Plan(test, db_);
  prediction.plan.Validate(test);
  EXPECT_GT(prediction.inference_ns, 0);
}

TEST_F(LqoTest, BalsaTrainsWithoutExpertPlans) {
  BalsaOptimizer::Options options;
  options.pretrain_samples_per_query = 3;
  options.pretrain_epochs = 1;
  options.iterations = 1;
  options.train_epochs = 2;
  BalsaOptimizer balsa(options);
  const auto train = SmallTrainSet();
  const TrainReport report = balsa.Train(train, db_);
  // Pretraining consults the cost model, not the executor.
  EXPECT_EQ(report.planner_calls,
            static_cast<int64_t>(train.size()) *
                options.pretrain_samples_per_query);
  EXPECT_GT(report.plans_executed, 0);
  const Query& test = (*workload_)[60];
  const Prediction prediction = balsa.Plan(test, db_);
  prediction.plan.Validate(test);
}

TEST_F(LqoTest, LeonEnumeratesAndRanks) {
  LeonOptimizer::Options options;
  options.beam_masks = 6;
  options.topk_per_mask = 2;
  options.exec_per_query = 2;
  options.pair_epochs = 2;
  LeonOptimizer leon(options);
  std::vector<Query> train = {(*workload_)[0], (*workload_)[4]};
  const TrainReport report = leon.Train(train, db_);
  EXPECT_GT(report.planner_calls, 100);  // subplan cost calls dominate
  const Query& test = (*workload_)[8];
  const Prediction prediction = leon.Plan(test, db_);
  prediction.plan.Validate(test);
  // LEON's inference is dominated by per-subplan cost calls.
  EXPECT_GT(prediction.inference_ns, 1'000'000'000);
}

TEST_F(LqoTest, LeonRespectsTrainingBudget) {
  // The budget is checked before each query: with a 1 ns budget only the
  // first query is processed before training stops.
  LeonOptimizer::Options options;
  options.beam_masks = 6;
  options.topk_per_mask = 2;
  options.exec_per_query = 2;
  options.train_budget_ns = 1;
  LeonOptimizer leon(options);
  std::vector<Query> train = {(*workload_)[0], (*workload_)[4],
                              (*workload_)[8]};
  const TrainReport report = leon.Train(train, db_);
  EXPECT_LE(report.plans_executed, options.exec_per_query);
  EXPECT_GT(report.plans_executed, 0);
}

TEST_F(LqoTest, Table1HasEightRows) {
  const auto rows = Table1EncodingSpecs();
  ASSERT_EQ(rows.size(), 8u);
  std::set<std::string> names;
  for (const auto& row : rows) names.insert(row.name);
  EXPECT_TRUE(names.count("Neo"));
  EXPECT_TRUE(names.count("Bao"));
  EXPECT_TRUE(names.count("Balsa"));
  EXPECT_TRUE(names.count("LEON"));
  EXPECT_TRUE(names.count("RTOS"));
  EXPECT_TRUE(names.count("Lero"));
  EXPECT_TRUE(names.count("LOGER"));
  EXPECT_TRUE(names.count("HybridQO"));
  // Bao's distinguishing properties from Table 1.
  for (const auto& row : rows) {
    if (row.name == "Bao") {
      EXPECT_EQ(row.table_identifier, "-");
      EXPECT_EQ(row.model_output, "Hint set");
      EXPECT_EQ(row.dbms_integration, "yes");
    }
  }
}

TEST_F(LqoTest, TrainingDeterministicForSeed) {
  // Identical options + database state snapshots produce identical plans.
  Database::Options options;
  options.profile = datagen::ScaleProfile::Small();
  options.seed = 42;
  auto db1 = Database::CreateImdb(options);
  auto db2 = Database::CreateImdb(options);
  BaoOptimizer::Options bao_options;
  bao_options.epochs = 1;
  bao_options.train_epochs = 2;
  BaoOptimizer bao1(bao_options);
  BaoOptimizer bao2(bao_options);
  const auto train = SmallTrainSet();
  bao1.Train(train, db1.get());
  bao2.Train(train, db2.get());
  const Query& q = (*workload_)[45];
  EXPECT_EQ(bao1.Plan(q, db1.get()).plan.ToString(q),
            bao2.Plan(q, db2.get()).plan.ToString(q));
}

// Pins the in-place training trajectory (no worker replicas: executions
// share the database's cache, warm-up and noise state) of every LQO, bit
// for bit: the TrainReport totals, then Plan()'s plan, inference and
// planning time on held-out queries. Each test builds its own database so
// the digest does not depend on which tests ran before it. A mismatch
// means training behaves differently, e.g. executes its plans in another
// order.
uint64_t TrainingDigest(const std::string& lqo_name) {
  const std::unique_ptr<LearnedOptimizer> lqo = testutil::SmallLqo(lqo_name);
  Database::Options options;
  options.profile = datagen::ScaleProfile::Small();
  options.seed = 42;
  const auto db = Database::CreateImdb(options);
  const std::vector<Query> workload =
      query::LoadWorkload("job", db->schema());
  // Train on the first variant of the first 8 small templates; hold out
  // the next 4 small queries outside the train set.
  std::vector<Query> train, held_out;
  std::set<int32_t> templates;
  for (const Query& q : workload) {
    if (q.relation_count() > 8) continue;
    if (train.size() < 8 && templates.insert(q.template_id).second) {
      train.push_back(q);
    } else if (train.size() == 8 && held_out.size() < 4 &&
               templates.count(q.template_id) == 0) {
      held_out.push_back(q);
    }
  }
  const TrainReport report = lqo->Train(train, db.get());
  testutil::Digest digest;
  digest.AddInt(report.plans_executed);
  digest.AddInt(report.execution_ns);
  digest.AddInt(report.nn_updates);
  digest.AddInt(report.nn_evals);
  digest.AddInt(report.planner_calls);
  digest.AddInt(report.training_time_ns);
  for (const Query& q : held_out) {
    const Prediction prediction = lqo->Plan(q, db.get());
    digest.Add(prediction.plan.ToString(q));
    digest.AddInt(prediction.inference_ns);
    digest.AddInt(prediction.planning_ns);
  }
  return digest.value();
}

TEST(LqoTrainingDigest, Bao) {
  EXPECT_EQ(TrainingDigest("bao"), 0x5333a348cc163296ull);
}

TEST(LqoTrainingDigest, Neo) {
  EXPECT_EQ(TrainingDigest("neo"), 0xb9653576fe8596c9ull);
}

TEST(LqoTrainingDigest, Balsa) {
  EXPECT_EQ(TrainingDigest("balsa"), 0x2dfadc5a9dd2542eull);
}

TEST(LqoTrainingDigest, Leon) {
  EXPECT_EQ(TrainingDigest("leon"), 0x68d83829c0982054ull);
}

TEST(LqoTrainingDigest, Lero) {
  EXPECT_EQ(TrainingDigest("lero"), 0xe542bdac67568d8full);
}

TEST(LqoTrainingDigest, Loger) {
  EXPECT_EQ(TrainingDigest("loger"), 0x8cfd2119849aec0full);
}

TEST(LqoTrainingDigest, Rtos) {
  EXPECT_EQ(TrainingDigest("rtos"), 0x9ce6c824ce767482ull);
}

TEST(LqoTrainingDigest, HybridQo) {
  EXPECT_EQ(TrainingDigest("hybridqo"), 0x79c748c86ce53489ull);
}

}  // namespace
}  // namespace lqolab::lqo
