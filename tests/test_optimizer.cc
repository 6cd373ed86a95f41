// Tests for the cost model, DP planner, GEQO, plan utilities, and the
// bit-for-bit digests of the estimator and planner.

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "datagen/tpch_generator.h"
#include "digest.h"
#include "engine/database.h"
#include "faultlib/faultlib.h"
#include "lqo/bao.h"
#include "optimizer/cost_model.h"
#include "optimizer/physical_plan.h"
#include "optimizer/planner.h"
#include "query/sql_workload.h"
#include "sql/binder.h"
#include "stats/cardinality_estimator.h"
#include "util/rng.h"

namespace lqolab::optimizer {
namespace {

using engine::Database;
using engine::DbConfig;
using query::AliasId;
using query::AliasMask;
using query::Query;

std::unique_ptr<Database> MakeDb(DbConfig config = DbConfig::OurFramework()) {
  Database::Options options;
  options.profile = datagen::ScaleProfile::Small();
  options.seed = 42;
  options.config = config;
  return Database::CreateImdb(options);
}

TEST(PhysicalPlan, BuildAndValidate) {
  Query q;
  q.id = "plan_test";
  q.relations = {{catalog::imdb::kTitle, "t"},
                 {catalog::imdb::kMovieKeyword, "mk"},
                 {catalog::imdb::kKeyword, "k"}};
  q.edges = {{0, 0, 1, 1}, {1, 2, 2, 0}};
  PhysicalPlan plan;
  const int32_t t = plan.AddScan(0, ScanType::kSeq);
  const int32_t mk = plan.AddScan(1, ScanType::kSeq);
  const int32_t j1 = plan.AddJoin(JoinAlgo::kHash, t, mk);
  const int32_t k = plan.AddScan(2, ScanType::kSeq);
  plan.AddJoin(JoinAlgo::kHash, j1, k);
  plan.Validate(q);
  EXPECT_EQ(plan.join_count(), 2);
  EXPECT_TRUE(plan.IsLeftDeep());
  EXPECT_EQ(plan.node(plan.root).mask, q.FullMask());
  const std::string s = plan.ToString(q);
  EXPECT_NE(s.find("HashJoin"), std::string::npos);
  EXPECT_NE(s.find("SeqScan(t)"), std::string::npos);
}

TEST(PhysicalPlan, BushyDetection) {
  Query q;
  q.id = "bushy_test";
  q.relations = {{catalog::imdb::kTitle, "t"},
                 {catalog::imdb::kMovieKeyword, "mk"},
                 {catalog::imdb::kMovieInfo, "mi"},
                 {catalog::imdb::kInfoType, "it"}};
  q.edges = {{0, 0, 1, 1}, {0, 0, 2, 1}, {2, 2, 3, 0}};
  PhysicalPlan plan;
  const int32_t t = plan.AddScan(0, ScanType::kSeq);
  const int32_t mk = plan.AddScan(1, ScanType::kSeq);
  const int32_t left = plan.AddJoin(JoinAlgo::kHash, t, mk);
  const int32_t mi = plan.AddScan(2, ScanType::kSeq);
  const int32_t it = plan.AddScan(3, ScanType::kSeq);
  const int32_t right = plan.AddJoin(JoinAlgo::kHash, mi, it);
  plan.AddJoin(JoinAlgo::kHash, left, right);
  plan.Validate(q);
  EXPECT_FALSE(plan.IsLeftDeep());
}

TEST(CostModel, SelectiveFilterPrefersIndexOrBitmap) {
  auto db = MakeDb();
  // A highly selective equality on an indexed column.
  Query q;
  q.id = "cost_scan_test";
  q.relations = {{catalog::imdb::kTitle, "t"},
                 {catalog::imdb::kMovieKeyword, "mk"}};
  q.edges = {{0, 0, 1, 1}};
  query::Predicate p;
  p.alias = 0;
  p.column = 0;  // id (unique)
  p.kind = query::Predicate::Kind::kEq;
  p.int_values = {17};
  q.predicates.push_back(p);
  const ScanChoice choice = db->planner().cost_model().BestScan(q, 0);
  EXPECT_NE(choice.type, ScanType::kSeq);
}

TEST(CostModel, UnfilteredTablePrefersSeqScan) {
  auto db = MakeDb();
  Query q;
  q.id = "cost_seq_test";
  q.relations = {{catalog::imdb::kCastInfo, "ci"},
                 {catalog::imdb::kTitle, "t"}};
  q.edges = {{0, 2, 1, 0}};
  const ScanChoice choice = db->planner().cost_model().BestScan(q, 0);
  EXPECT_EQ(choice.type, ScanType::kSeq);
}

TEST(CostModel, DisabledScansGetPenalty) {
  DbConfig config = DbConfig::OurFramework();
  config.enable_seqscan = false;
  auto db = MakeDb(config);
  Query q;
  q.id = "cost_disabled_test";
  q.relations = {{catalog::imdb::kCastInfo, "ci"},
                 {catalog::imdb::kTitle, "t"}};
  q.edges = {{0, 2, 1, 0}};
  const ScanChoice seq = db->planner().cost_model().ScanCost(q, 0,
                                                             ScanType::kSeq);
  EXPECT_GE(seq.cost, kDisabledPathCost);
  // BestScan still succeeds (last-resort semantics).
  const ScanChoice best = db->planner().cost_model().BestScan(q, 0);
  EXPECT_LT(best.cost, kImpossibleCost);
}

TEST(CostModel, TidScanOnlyForIdEquality) {
  auto db = MakeDb();
  Query q;
  q.id = "cost_tid_test";
  q.relations = {{catalog::imdb::kTitle, "t"},
                 {catalog::imdb::kMovieKeyword, "mk"}};
  q.edges = {{0, 0, 1, 1}};
  // Without an id predicate: impossible.
  EXPECT_GE(db->planner().cost_model().ScanCost(q, 0, ScanType::kTid).cost,
            kImpossibleCost);
  query::Predicate p;
  p.alias = 0;
  p.column = 0;
  p.kind = query::Predicate::Kind::kEq;
  p.int_values = {5};
  q.predicates.push_back(p);
  EXPECT_LT(db->planner().cost_model().ScanCost(q, 0, ScanType::kTid).cost,
            kImpossibleCost);
}

TEST(CostModel, JoinCostMonotoneInInputSize) {
  auto db = MakeDb();
  Query q = query::LoadWorkloadQuery("job", "3a", db->schema());
  const auto& cm = db->planner().cost_model();
  const double small = cm.JoinCost(q, JoinAlgo::kHash, 1000, 1000, 1000);
  const double large = cm.JoinCost(q, JoinAlgo::kHash, 100000, 100000, 1000);
  EXPECT_GT(large, small);
}

TEST(CostModel, CachedFractionRespondsToEffectiveCacheSize) {
  DbConfig small_cache = DbConfig::Default();
  small_cache.effective_cache_size_mb = 64;
  DbConfig big_cache = DbConfig::Default();
  big_cache.effective_cache_size_mb = 64 * 1024;
  auto db = MakeDb(small_cache);
  const double small_fraction = db->planner().cost_model().CachedFraction();
  db->SetConfig(big_cache);
  const double big_fraction = db->planner().cost_model().CachedFraction();
  EXPECT_LT(small_fraction, big_fraction);
  EXPECT_LE(big_fraction, 1.0);
}

/// Exhaustive reference: enumerate ALL physical plans (bushy, all join
/// algorithms, best scans) for a small query and return the cheapest cost.
double ExhaustiveBestCost(const Planner& planner, const Query& q) {
  const CostModel& cm = planner.cost_model();
  struct Frag {
    PhysicalPlan plan;
    AliasMask mask;
  };
  double best = kImpossibleCost * 2;
  std::function<void(std::vector<Frag>)> recurse =
      [&](std::vector<Frag> frags) {
        if (frags.size() == 1) {
          const double cost = planner.EstimatePlanCost(q, frags[0].plan);
          best = std::min(best, cost);
          return;
        }
        for (size_t i = 0; i < frags.size(); ++i) {
          for (size_t j = 0; j < frags.size(); ++j) {
            if (i == j) continue;
            if (!q.HasEdgeBetween(frags[i].mask, frags[j].mask)) continue;
            for (JoinAlgo algo : {JoinAlgo::kHash, JoinAlgo::kNestLoop,
                                  JoinAlgo::kMerge}) {
              std::vector<Frag> next;
              Frag combined;
              combined.mask = frags[i].mask | frags[j].mask;
              // Rebuild combined plan.
              PhysicalPlan merged = frags[i].plan;
              const int32_t offset =
                  static_cast<int32_t>(merged.nodes.size());
              for (PlanNode node : frags[j].plan.nodes) {
                if (node.type == PlanNode::Type::kJoin) {
                  node.left += offset;
                  node.right += offset;
                }
                merged.nodes.push_back(node);
              }
              PlanNode join;
              join.type = PlanNode::Type::kJoin;
              join.algo = algo;
              join.left = frags[i].plan.root;
              join.right = frags[j].plan.root + offset;
              join.mask = combined.mask;
              merged.nodes.push_back(join);
              merged.root = static_cast<int32_t>(merged.nodes.size()) - 1;
              combined.plan = std::move(merged);
              for (size_t k = 0; k < frags.size(); ++k) {
                if (k != i && k != j) next.push_back(frags[k]);
              }
              next.push_back(combined);
              recurse(std::move(next));
            }
          }
        }
      };
  std::vector<Frag> leaves;
  for (AliasId a = 0; a < q.relation_count(); ++a) {
    Frag frag;
    const ScanChoice scan = cm.BestScan(q, a);
    frag.plan.AddScan(a, scan.type, scan.index_column);
    frag.mask = query::MaskOf(a);
    leaves.push_back(std::move(frag));
  }
  recurse(std::move(leaves));
  return best;
}

TEST(Planner, DpMatchesExhaustiveOnSmallQueries) {
  auto db = MakeDb();
  // Template 3 has 4 relations: exhaustive enumeration is tractable.
  for (const char* id : {"3a", "3b", "3c"}) {
    const Query q = query::LoadWorkloadQuery("job", id, db->schema());
    const PlanningResult dp =
        db->planner().PlanDynamicProgramming(q, /*bushy=*/true);
    const double exhaustive = ExhaustiveBestCost(db->planner(), q);
    // DP considers index-NLJ paths the simple reference does not, so DP can
    // only be at least as good.
    EXPECT_LE(dp.estimated_cost, exhaustive * 1.0001) << q.id;
  }
}

TEST(Planner, DpPlanCostConsistentWithEstimatePlanCost) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "4a", db->schema());
  const PlanningResult dp =
      db->planner().PlanDynamicProgramming(q, /*bushy=*/true);
  const double recost = db->planner().EstimatePlanCost(q, dp.plan);
  EXPECT_NEAR(dp.estimated_cost / recost, 1.0, 0.05);
}

TEST(Planner, LeftDeepNeverBeatsBushy) {
  auto db = MakeDb();
  for (const char* id : {"3a", "11a", "14a"}) {
    const Query q = query::LoadWorkloadQuery("job", id, db->schema());
    const PlanningResult bushy =
        db->planner().PlanDynamicProgramming(q, true);
    const PlanningResult left_deep =
        db->planner().PlanDynamicProgramming(q, false);
    EXPECT_LE(bushy.estimated_cost, left_deep.estimated_cost * 1.0001)
        << q.id;
    EXPECT_TRUE(left_deep.plan.IsLeftDeep()) << q.id;
  }
}

TEST(Planner, GeqoProducesValidDeterministicPlans) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "29a", db->schema());
  const PlanningResult a = db->planner().PlanGenetic(q, GeqoParams{});
  const PlanningResult b = db->planner().PlanGenetic(q, GeqoParams{});
  a.plan.Validate(q);
  EXPECT_TRUE(a.used_geqo);
  EXPECT_EQ(a.estimated_cost, b.estimated_cost);
  EXPECT_EQ(a.plan.ToString(q), b.plan.ToString(q));
}

TEST(Planner, GeqoNotWorseThanRandomOrder) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "30a", db->schema());
  const PlanningResult geqo = db->planner().PlanGenetic(q, GeqoParams{});
  // A FROM-order plan as the "random" baseline.
  std::vector<AliasId> order;
  for (AliasId a = 0; a < q.relation_count(); ++a) order.push_back(a);
  const double from_order_cost =
      db->planner().CostJoinOrder(q, order, nullptr, nullptr);
  EXPECT_LE(geqo.estimated_cost, from_order_cost * 1.0001);
}

TEST(Planner, DispatchRespectsGeqoThreshold) {
  auto db = MakeDb();
  const Query big = query::LoadWorkloadQuery("job", "29a", db->schema());
  const Query small = query::LoadWorkloadQuery("job", "3a", db->schema());
  EXPECT_TRUE(db->planner().Plan(big).used_geqo);
  EXPECT_FALSE(db->planner().Plan(small).used_geqo);
  DbConfig no_geqo = DbConfig::OurFramework();
  no_geqo.geqo = false;
  db->SetConfig(no_geqo);
  EXPECT_FALSE(db->planner().Plan(big).used_geqo);
}

TEST(Planner, GeqoSeedFlowsFromConfigIntoPlan) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "29a", db->schema());

  // Plan() must thread config.geqo_seed into GeqoParams: planning through
  // the dispatcher and calling PlanGenetic with the same seed directly are
  // byte-identical.
  DbConfig config = DbConfig::OurFramework();
  config.geqo_seed = 12345;
  db->SetConfig(config);
  const PlanningResult via_plan = db->planner().Plan(q);
  ASSERT_TRUE(via_plan.used_geqo);
  GeqoParams params;
  params.seed = 12345;
  const PlanningResult direct = db->planner().PlanGenetic(q, params);
  EXPECT_EQ(via_plan.plan.ToString(q), direct.plan.ToString(q));
  EXPECT_EQ(via_plan.estimated_cost, direct.estimated_cost);

  // The knob is live: some nearby seed must genetically plan differently
  // than seed 0 on a 17-relation query.
  const std::string base =
      db->planner().PlanGenetic(q, GeqoParams{}).plan.ToString(q);
  bool differs = false;
  for (uint64_t seed = 1; seed <= 16 && !differs; ++seed) {
    GeqoParams p;
    p.seed = seed;
    differs = db->planner().PlanGenetic(q, p).plan.ToString(q) != base;
  }
  EXPECT_TRUE(differs);

  // Worker replicas inherit the configured seed and plan identically —
  // the property parallel replay and fuzz replays rely on.
  const auto replica = db->CloneContextForWorker();
  EXPECT_EQ(replica->planner().Plan(q).plan.ToString(q),
            via_plan.plan.ToString(q));
}

TEST(Planner, JoinCollapseLimitForcesFromOrder) {
  DbConfig config = DbConfig::OurFramework();
  config.join_collapse_limit = 1;
  auto db = MakeDb(config);
  const Query q = query::LoadWorkloadQuery("job", "11a", db->schema());
  const PlanningResult result = db->planner().Plan(q);
  result.plan.Validate(q);
  EXPECT_TRUE(result.plan.IsLeftDeep());
  // Scan leaves appear in FROM order along the left spine.
  std::vector<AliasId> leaf_order;
  for (const auto& node : result.plan.nodes) {
    if (node.type == PlanNode::Type::kScan) leaf_order.push_back(node.alias);
  }
  for (size_t i = 0; i < leaf_order.size(); ++i) {
    EXPECT_EQ(leaf_order[i], static_cast<AliasId>(i));
  }
}

TEST(Planner, DisablingOperatorsChangesPlans) {
  auto db = MakeDb();
  const Query q = query::LoadWorkloadQuery("job", "13a", db->schema());
  const PlanningResult with_all = db->planner().Plan(q);
  DbConfig config = DbConfig::OurFramework();
  config.enable_hashjoin = false;
  db->SetConfig(config);
  const PlanningResult without_hash = db->planner().Plan(q);
  without_hash.plan.Validate(q);
  for (const auto& node : without_hash.plan.nodes) {
    if (node.type == PlanNode::Type::kJoin) {
      EXPECT_NE(node.algo, JoinAlgo::kHash) << q.id;
    }
  }
  EXPECT_GE(without_hash.estimated_cost, with_all.estimated_cost * 0.999);
}

TEST(Planner, PlannerStepsPositiveAndLargerForBiggerQueries) {
  auto db = MakeDb();
  const PlanningResult small =
      db->planner().Plan(query::LoadWorkloadQuery("job", "3a", db->schema()));
  const PlanningResult medium =
      db->planner().Plan(query::LoadWorkloadQuery("job", "22a", db->schema()));
  EXPECT_GT(small.planner_steps, 0);
  EXPECT_GT(medium.planner_steps, small.planner_steps);
}

/// Property sweep: the native planner produces a valid plan for every JOB
/// query under several configurations.
class PlannerWorkloadProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlannerWorkloadProperty, ValidPlans) {
  static Database* db = MakeDb().release();
  static auto workload = query::LoadWorkload("job", db->schema());
  const auto [query_index, config_index] = GetParam();
  DbConfig configs[3] = {DbConfig::OurFramework(), DbConfig::BalsaLeon(),
                         DbConfig::Default()};
  db->SetConfig(configs[config_index]);
  const Query& q = workload[static_cast<size_t>(query_index)];
  const PlanningResult result = db->planner().Plan(q);
  result.plan.Validate(q);
  EXPECT_LT(result.estimated_cost, kImpossibleCost) << q.id;
  // Scan types respect the configuration.
  for (const auto& node : result.plan.nodes) {
    if (node.type != PlanNode::Type::kScan) continue;
    if (!configs[config_index].enable_bitmapscan) {
      EXPECT_NE(node.scan_type, ScanType::kBitmap) << q.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlannerWorkloadProperty,
    ::testing::Combine(::testing::Range(0, 113, 11),
                       ::testing::Range(0, 3)));

using testutil::Digest;

/// The planner configurations the digests sweep: the database default,
/// left-deep DP, GEQO from four relations up, and both estimator ablations.
std::vector<DbConfig> DigestConfigs(const DbConfig& base) {
  std::vector<DbConfig> configs(5, base);
  configs[1].enable_bushy = false;
  configs[2].geqo_threshold = 4;
  configs[3].estimator_mode = engine::EstimatorMode::kNaiveProduct;
  configs[4].estimator_mode = engine::EstimatorMode::kNoMcvJoins;
  return configs;
}

struct WorkloadDigests {
  uint64_t estimates = 0;
  uint64_t plans = 0;
};

/// Digests (1) the join estimate of every connected alias mask of every
/// query under the default configuration and (2) Plan() plus
/// EstimatePlanCost of the chosen plan under each DigestConfigs entry.
WorkloadDigests DigestWorkload(Database* db, const std::string& workload) {
  const DbConfig base = db->config();
  const std::vector<Query> queries = query::LoadWorkload(workload,
                                                         db->schema());
  WorkloadDigests out;
  Digest estimates;
  const stats::CardinalityEstimator& estimator = db->planner().estimator();
  for (const Query& q : queries) {
    estimates.Add(q.id);
    stats::QueryEstimates est(estimator, q);
    for (AliasMask mask = 1; mask <= q.FullMask(); ++mask) {
      if (!q.IsConnected(mask)) continue;
      estimates.AddInt(mask);
      estimates.AddDouble(est.JoinRows(mask));
    }
    // The single-shot wrapper is the same formula over a fresh memo.
    EXPECT_EQ(estimator.EstimateJoinRows(q, q.FullMask()),
              est.JoinRows(q.FullMask()))
        << q.id;
  }
  out.estimates = estimates.value();
  Digest plans;
  for (const DbConfig& config : DigestConfigs(base)) {
    db->SetConfig(config);
    for (const Query& q : queries) {
      const PlanningResult r = db->planner().Plan(q);
      plans.Add(q.id);
      plans.Add(r.plan.ToString(q));
      plans.AddDouble(r.estimated_cost);
      plans.AddInt(r.planner_steps);
      plans.AddInt(r.used_geqo ? 1 : 0);
      plans.AddDouble(db->planner().EstimatePlanCost(q, r.plan));
    }
  }
  db->SetConfig(base);
  out.plans = plans.value();
  return out;
}

Database* DigestImdb() {
  static Database* db = MakeDb().release();
  return db;
}

// Bit-for-bit pins of the estimator and planner. The constants come from
// the unmemoized estimator (one full derivation per EstimateJoinRows
// call), so they check that stats::QueryEstimates changes no bit; any
// change to a single estimate, cost, plan or step count (e.g. clamping
// the stepwise estimate only at the end instead of after every edge)
// fails here. They were re-recorded once, when Analyze's MCV tie order
// became explicit (stats changed; estimator and planner did not).
TEST(PlannerDigest, Job) {
  const WorkloadDigests d = DigestWorkload(DigestImdb(), "job");
  EXPECT_EQ(d.estimates, 15118124271531004665ull);
  EXPECT_EQ(d.plans, 2907899266197415689ull);
}

TEST(PlannerDigest, ExtJob) {
  const WorkloadDigests d = DigestWorkload(DigestImdb(), "ext_job");
  EXPECT_EQ(d.estimates, 14266744631386887433ull);
  EXPECT_EQ(d.plans, 10226306592552888242ull);
}

TEST(PlannerDigest, JobComplex) {
  const WorkloadDigests d = DigestWorkload(DigestImdb(), "job_complex");
  EXPECT_EQ(d.estimates, 5501647116757620207ull);
  EXPECT_EQ(d.plans, 14771810807431675067ull);
}

TEST(PlannerDigest, Tpch) {
  Database::Options options;
  options.seed = 42;
  const auto db = Database::CreateTpch(
      options, datagen::TpchScaleProfile::Small().Scaled(0.5));
  const WorkloadDigests d = DigestWorkload(db.get(), "tpch");
  EXPECT_EQ(d.estimates, 3588955845889456417ull);
  EXPECT_EQ(d.plans, 9893921459431630616ull);
}

// Bao plans every query under each of its hint sets, so disabled operators
// (and their kDisabledPathCost penalties) drive DP and GEQO here, which the
// digests above never exercise.
TEST(PlannerDigest, BaoHintSets) {
  Database* db = DigestImdb();
  const DbConfig base = db->config();
  const std::vector<Query> queries = query::LoadWorkload("job", db->schema());
  Digest plans;
  for (const lqo::HintSet& hints : lqo::DefaultHintSets()) {
    for (const int32_t threshold : {DbConfig::Bao().geqo_threshold, 4}) {
      DbConfig config = DbConfig::Bao();
      config.geqo_threshold = threshold;
      config.enable_nestloop = hints.enable_nestloop;
      config.enable_hashjoin = hints.enable_hashjoin;
      config.enable_mergejoin = hints.enable_mergejoin;
      config.enable_indexscan = hints.enable_indexscan;
      config.enable_bitmapscan = hints.enable_bitmapscan;
      config.enable_seqscan = hints.enable_seqscan;
      db->SetConfig(config);
      for (const Query& q : queries) {
        const PlanningResult r = db->planner().Plan(q);
        plans.Add(q.id);
        plans.Add(r.plan.ToString(q));
        plans.AddDouble(r.estimated_cost);
        plans.AddInt(r.planner_steps);
        plans.AddInt(r.used_geqo ? 1 : 0);
        plans.AddDouble(db->planner().EstimatePlanCost(q, r.plan));
      }
    }
  }
  db->SetConfig(base);
  EXPECT_EQ(plans.value(), 14390137845420912634ull);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// The planner's per-call state costs index-NLJs from each inner alias's
/// CostModel::IndexProbes list, picked by FirstProbe. For every connected
/// outer mask and every inner outside it, that pick must be the edge the
/// single-shot CanIndexNlj returns, which must be the first edge of
/// Query::EdgesBetween whose inner column is indexed, and both must cost
/// the join to the same bits. Runs with nested loops on and off, so the
/// disabled-path penalty is compared too. Returns the pairs that can probe.
int64_t ExpectIndexProbesMatch(Database* db, const std::string& workload) {
  const DbConfig base = db->config();
  DbConfig no_nestloop = base;
  no_nestloop.enable_nestloop = false;
  const CostModel& cm = db->planner().cost_model();
  const std::vector<Query> queries = query::LoadWorkload(workload,
                                                         db->schema());
  int64_t probed = 0;
  for (const DbConfig& config : {base, no_nestloop}) {
    db->SetConfig(config);
    const CostConstants k = cm.Constants();
    for (const Query& q : queries) {
      stats::QueryEstimates est(db->planner().estimator(), q);
      std::vector<std::vector<IndexProbe>> probes;
      for (AliasId inner = 0; inner < q.relation_count(); ++inner) {
        probes.push_back(cm.IndexProbes(q, inner));
      }
      for (AliasMask outer = 1; outer <= q.FullMask(); ++outer) {
        if (!q.IsConnected(outer)) continue;
        for (AliasId inner = 0; inner < q.relation_count(); ++inner) {
          const AliasMask inner_mask = query::MaskOf(inner);
          if (outer & inner_mask) continue;
          const catalog::TableId table =
              q.relations[static_cast<size_t>(inner)].table;
          catalog::ColumnId expected = catalog::kInvalidColumn;
          for (const query::JoinEdge& edge : q.EdgesBetween(outer,
                                                            inner_mask)) {
            if (db->context().FindIndex(table, edge.right_column) != nullptr) {
              expected = edge.right_column;
              break;
            }
          }
          catalog::ColumnId column = catalog::kInvalidColumn;
          const bool can = cm.CanIndexNlj(q, outer, inner, &column);
          const IndexProbe* probe =
              CostModel::FirstProbe(probes[static_cast<size_t>(inner)], outer);
          EXPECT_EQ(can, expected != catalog::kInvalidColumn)
              << q.id << " outer " << outer << " inner " << inner;
          EXPECT_EQ(probe != nullptr, can)
              << q.id << " outer " << outer << " inner " << inner;
          if (!can || probe == nullptr) continue;
          EXPECT_EQ(column, expected) << q.id;
          EXPECT_EQ(probe->probe_column, column) << q.id;
          const double rows_left = est.JoinRows(outer);
          const double rows_right = est.BaseRows(inner);
          const double rows_out = est.JoinRows(outer | inner_mask);
          EXPECT_EQ(Bits(CostModel::JoinCost(k, JoinAlgo::kIndexNlj,
                                             rows_left, rows_right, rows_out,
                                             probe)),
                    Bits(cm.JoinCost(q, JoinAlgo::kIndexNlj, rows_left,
                                     rows_right, rows_out, inner, column)))
              << q.id << " outer " << outer << " inner " << inner;
          ++probed;
        }
      }
    }
  }
  db->SetConfig(base);
  return probed;
}

TEST(CostModel, IndexProbesMatchCanIndexNljAndJoinCost) {
  for (const std::string workload : {"job", "job_complex", "ext_job"}) {
    EXPECT_GT(ExpectIndexProbesMatch(DigestImdb(), workload), 0) << workload;
  }
  Database::Options options;
  options.seed = 42;
  const auto tpch = Database::CreateTpch(
      options, datagen::TpchScaleProfile::Small().Scaled(0.5));
  EXPECT_GT(ExpectIndexProbesMatch(tpch.get(), "tpch"), 0);
}

// GEQO fitness calls CostJoinOrder without plan_out, which skips building
// the plan; the cost bits and step count must not depend on it. Orders are
// random connected ones plus the FROM order (often a cross product).
TEST(Planner, CostJoinOrderSameBitsWithoutPlan) {
  Database* db = DigestImdb();
  const DbConfig base = db->config();
  DbConfig no_nestloop = base;
  no_nestloop.enable_nestloop = false;
  util::Rng rng(0x0bde5);
  for (const DbConfig& config : {base, no_nestloop}) {
    db->SetConfig(config);
    for (const std::string workload : {"job", "job_complex"}) {
      for (const Query& q : query::LoadWorkload(workload, db->schema())) {
        const int32_t n = q.relation_count();
        for (int trial = 0; trial < 8; ++trial) {
          std::vector<AliasId> order;
          if (trial == 0) {
            for (AliasId a = 0; a < n; ++a) order.push_back(a);
          } else {
            order.push_back(static_cast<AliasId>(rng.UniformInt(0, n - 1)));
            AliasMask mask = query::MaskOf(order[0]);
            while (static_cast<int32_t>(order.size()) < n) {
              std::vector<AliasId> candidates;
              for (AliasId a = 0; a < n; ++a) {
                if (!(mask & query::MaskOf(a)) &&
                    (q.AdjacencyMask(a) & mask)) {
                  candidates.push_back(a);
                }
              }
              const AliasId pick = candidates[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int64_t>(candidates.size()) -
                                        1))];
              order.push_back(pick);
              mask |= query::MaskOf(pick);
            }
          }
          PhysicalPlan plan;
          int64_t steps_with = 0;
          int64_t steps_without = 0;
          const double with =
              db->planner().CostJoinOrder(q, order, &plan, &steps_with);
          const double without =
              db->planner().CostJoinOrder(q, order, nullptr, &steps_without);
          EXPECT_EQ(Bits(with), Bits(without)) << q.id << " trial " << trial;
          EXPECT_EQ(steps_with, steps_without) << q.id;
          if (trial > 0) {
            ASSERT_LT(with, kImpossibleCost) << q.id;
            plan.Validate(q);
          }
        }
      }
    }
  }
  db->SetConfig(base);
}

/// A keyed estimate-poison schedule: 1e-4 underestimates on a seeded
/// quarter of the (query, alias mask) key space.
faultlib::FaultPlan EstimatePoison() {
  faultlib::FaultPlan plan;
  plan.name = "estimate_poison";
  plan.seed = 0x9e1507150ull;
  faultlib::FaultRule rule;
  rule.point = "stats.estimate";
  rule.kind = faultlib::FaultKind::kPoison;
  rule.probability = 0.25;
  rule.poison_scale = 1e-4;
  plan.Add(rule);
  return plan;
}

/// Pins a deterministic fifth of the connected masks of `q` (singletons
/// included, so pinned base rows feed the raw join estimates).
exec::CardinalityPins PinsFor(const Query& q) {
  exec::CardinalityPins pins;
  for (AliasMask mask = 1; mask <= q.FullMask(); ++mask) {
    if (!q.IsConnected(mask)) continue;
    const uint64_t h = util::MixSeed(0x5eed, mask);
    if (h % 5 == 0) pins.Pin(mask, static_cast<double>(1 + h % 5000));
  }
  return pins;
}

// Pinned truths short-circuit before the estimate and its poison; the
// poison is applied on every unpinned estimate. Planning with both layers
// active must reproduce the plans and the fault point's hit/fire counts.
TEST(PlannerDigest, PinsAndPoisonLayering) {
  Database* db = DigestImdb();
  const DbConfig base = db->config();
  DbConfig geqo4 = base;
  geqo4.geqo_threshold = 4;
  faultlib::FaultInjector injector(EstimatePoison());
  Digest plans;
  {
    faultlib::ScopedFaultInjection inject(&injector);
    for (const std::string workload : {"job", "job_complex"}) {
      for (const DbConfig& config : {base, geqo4}) {
        db->SetConfig(config);
        for (const Query& q : query::LoadWorkload(workload, db->schema())) {
          const exec::CardinalityPins pins = PinsFor(q);
          db->context().card_pins = &pins;
          const PlanningResult r = db->planner().Plan(q);
          db->context().card_pins = nullptr;
          plans.Add(q.id);
          plans.Add(r.plan.ToString(q));
          plans.AddDouble(r.estimated_cost);
          plans.AddInt(r.planner_steps);
        }
      }
    }
  }
  db->SetConfig(base);
  EXPECT_EQ(plans.value(), 6603448430730285395ull);
  // The hit/fire counts follow how many JoinRows calls planning makes. They
  // were re-pinned (from 1827482 / 566344) when GEQO children began
  // resuming from their parent's costed prefix, which makes no call for
  // that prefix; the plans digest above did not move.
  EXPECT_EQ(injector.hits("stats.estimate"), 324220);
  EXPECT_EQ(injector.fires("stats.estimate"), 83635);
}

// Only the raw estimate is memoized: pins are consulted and the poison
// point is hit on every JoinRows call, so a repeated mask is a repeated hit
// with the same keyed decision.
TEST(QueryEstimates, PoisonHitOnEveryCallPinsShortCircuit) {
  Database* db = DigestImdb();
  const Query q = query::LoadWorkloadQuery("job", "3a", db->schema());
  const stats::CardinalityEstimator& estimator = db->planner().estimator();
  faultlib::FaultPlan always = EstimatePoison();
  always.rules[0].probability = 1.0;
  faultlib::FaultInjector injector(always);
  faultlib::ScopedFaultInjection inject(&injector);

  stats::QueryEstimates est(estimator, q);
  const AliasMask mask = q.FullMask();
  const double first = est.JoinRows(mask);
  const double second = est.JoinRows(mask);
  EXPECT_EQ(injector.hits("stats.estimate"), 2);
  EXPECT_EQ(injector.fires("stats.estimate"), 2);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, estimator.EstimateJoinRows(q, mask));
  EXPECT_EQ(injector.hits("stats.estimate"), 3);

  exec::CardinalityPins pins;
  pins.Pin(mask, 777.0);
  db->context().card_pins = &pins;
  stats::QueryEstimates pinned(estimator, q);
  EXPECT_EQ(pinned.JoinRows(mask), 777.0);
  EXPECT_EQ(pinned.JoinRows(mask), 777.0);
  db->context().card_pins = nullptr;
  EXPECT_EQ(injector.hits("stats.estimate"), 3);
}

/// The stepwise estimate with every step walking all of q.edges, as
/// QueryEstimates::RawJoinRows did before its per-alias incident lists.
double AllEdgesStepwiseRows(const stats::CardinalityEstimator& estimator,
                            const Query& q, AliasMask mask) {
  std::vector<AliasId> members;
  std::vector<double> base;
  for (AliasId a = 0; a < q.relation_count(); ++a) {
    if (mask & query::MaskOf(a)) {
      members.push_back(a);
      base.push_back(estimator.EstimateBaseRows(q, a));
    }
  }
  const size_t count = members.size();
  std::vector<char> used(count, 0);
  size_t start = 0;
  for (size_t i = 1; i < count; ++i) {
    if (base[i] < base[start]) start = i;
  }
  used[start] = 1;
  AliasMask covered = query::MaskOf(members[start]);
  double rows = base[start];
  for (size_t step = 1; step < count; ++step) {
    size_t next = count;
    for (size_t i = 0; i < count; ++i) {
      if (used[i] || (q.AdjacencyMask(members[i]) & covered) == 0) continue;
      if (next == count || base[i] < base[next]) next = i;
    }
    EXPECT_LT(next, count) << "only connected masks are compared";
    if (next == count) break;
    rows *= base[next];
    const AliasMask next_bit = query::MaskOf(members[next]);
    for (const query::JoinEdge& edge : q.edges) {
      const AliasMask l = query::MaskOf(edge.left_alias);
      const AliasMask r = query::MaskOf(edge.right_alias);
      if (((l & covered) && (r & next_bit)) ||
          ((r & covered) && (l & next_bit))) {
        rows = std::max(1.0, rows * estimator.EdgeSelectivity(q, edge));
      }
    }
    used[next] = 1;
    covered |= next_bit;
  }
  return std::max(1.0, rows);
}

// RawJoinRows walks only the edges incident to the alias it adds, in
// q.edges order. On a query with parallel edges (lineitem joins partsupp on
// both columns of its composite key, and part twice on the same column),
// every connected mask must match the all-edges walk bit for bit, so each
// alias's list must hold all of its edges, no other alias's, in order.
TEST(QueryEstimates, IncidentEdgeWalkMatchesAllEdgesOnParallelEdges) {
  Database::Options options;
  options.seed = 42;
  const auto db = Database::CreateTpch(
      options, datagen::TpchScaleProfile::Small().Scaled(0.5));
  Query q;
  ASSERT_TRUE(sql::ParseAndBindSql(
                  "SELECT COUNT(*) FROM part p, partsupp ps, supplier s, "
                  "lineitem l, orders o, nation n "
                  "WHERE ps.part_id = p.id AND ps.supplier_id = s.id "
                  "AND l.part_id = p.id AND l.supplier_id = s.id "
                  "AND l.part_id = ps.part_id AND l.order_id = o.id "
                  "AND l.supplier_id = ps.supplier_id AND p.id = ps.part_id "
                  "AND s.nation_id = n.id "
                  "AND p.brand LIKE 'Brand#1%' AND n.name = 'CANADA'",
                  db->schema(), &q)
                  .ok());
  sql::AssignQueryId("parallel", &q);
  const AliasId p = 0, ps = 1, l = 3;
  ASSERT_EQ(q.EdgesBetween(query::MaskOf(l), query::MaskOf(ps)).size(), 2u);
  ASSERT_EQ(q.EdgesBetween(query::MaskOf(p), query::MaskOf(ps)).size(), 2u);

  const stats::CardinalityEstimator& estimator = db->planner().estimator();
  stats::QueryEstimates est(estimator, q);
  int64_t compared = 0;
  for (AliasMask mask = 1; mask <= q.FullMask(); ++mask) {
    if (!q.IsConnected(mask)) continue;
    EXPECT_EQ(Bits(est.JoinRows(mask)),
              Bits(AllEdgesStepwiseRows(estimator, q, mask)))
        << "mask " << mask;
    ++compared;
  }
  EXPECT_GT(compared, 20);
}

}  // namespace
}  // namespace lqolab::optimizer
