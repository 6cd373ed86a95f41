// Tests for the cost model, DP planner, GEQO, and plan utilities.

#include <bit>
#include <cmath>
#include <functional>
#include <limits>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "optimizer/cost_model.h"
#include "optimizer/physical_plan.h"
#include "optimizer/planner.h"
#include "query/sql_workload.h"

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

}  // namespace
}  // namespace lqolab::optimizer
