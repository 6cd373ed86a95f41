// Golden-plan regression suite: snapshots the DP planner's join order,
// operator choices and estimated cost for a spread of JOB-lite queries
// against tests/golden/plans.txt. Any planner, estimator or datagen change
// that shifts a plan shows up as a readable diff here.
//
// Regenerate the fixture after an INTENDED change with:
//   ./build/tests/test_golden_plans --update-golden

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "optimizer/plan_hint.h"
#include "query/sql_workload.h"
#include "serve/query_server.h"

namespace lqolab {
namespace {

bool update_golden = false;

std::string GoldenPath() { return std::string(LQOLAB_GOLDEN_DIR) + "/plans.txt"; }

/// One line per query: "<id> | cost=<estimate> | <plan>". The plan string
/// carries the full join order, join algorithms and access paths.
std::vector<std::string> SnapshotLines() {
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Small();
  options.seed = 42;
  const auto db = engine::Database::CreateImdb(options);
  const auto workload = query::LoadWorkload("job", db->schema());

  std::vector<std::string> lines;
  // Every 5th query covers ~20 queries across the whole template range
  // (2-relation lookups through the 17-relation monsters).
  for (size_t i = 0; i < workload.size(); i += 5) {
    const query::Query& q = workload[i];
    const auto planned = db->PlanQuery(q);
    char cost[64];
    std::snprintf(cost, sizeof(cost), "%.4f", planned.estimated_cost);
    lines.push_back(q.id + " | cost=" + cost + " | " +
                    planned.plan.ToString(q));
  }
  return lines;
}

TEST(GoldenPlans, MatchesFixture) {
  const std::vector<std::string> lines = SnapshotLines();
  ASSERT_GE(lines.size(), 20u);

  if (update_golden) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.is_open()) << GoldenPath();
    out << "# DP planner snapshot: <query> | cost=<estimate> | <plan>\n";
    out << "# Regenerate: ./build/tests/test_golden_plans --update-golden\n";
    for (const std::string& line : lines) out << line << "\n";
    std::printf("updated %s (%zu plans)\n", GoldenPath().c_str(),
                lines.size());
    return;
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.is_open())
      << "missing " << GoldenPath()
      << " — run ./build/tests/test_golden_plans --update-golden";
  std::vector<std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') golden.push_back(line);
  }

  ASSERT_EQ(golden.size(), lines.size())
      << "fixture has a different query count — regenerate with "
         "--update-golden if the workload changed intentionally";
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(golden[i], lines[i])
        << "plan changed for query " << i
        << " — if intended, regenerate with --update-golden";
  }
}

TEST(GoldenPlans, SnapshotIsDeterministic) {
  EXPECT_EQ(SnapshotLines(), SnapshotLines());
}

/// Every workload plan must survive a hint round trip: render the planned
/// tree to the hint grammar (optimizer/plan_hint.h), re-parse it against
/// the same query, and get back a structurally identical plan that renders
/// to the same bytes. This is the contract the fuzzer's hint check and any
/// pg_hint_plan-style LQO integration rely on.
TEST(GoldenPlans, PlansRoundTripThroughHintGrammar) {
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Small();
  options.seed = 42;
  const auto db = engine::Database::CreateImdb(options);
  const auto workload = query::LoadWorkload("job", db->schema());
  for (const query::Query& q : workload) {
    const auto planned = db->PlanQuery(q);
    const std::string hint = optimizer::RenderPlanHint(planned.plan, q);
    optimizer::PhysicalPlan reparsed;
    std::string error;
    ASSERT_TRUE(optimizer::ParsePlanHint(hint, q, &reparsed, &error))
        << q.id << ": " << error << "\n" << hint;
    EXPECT_TRUE(reparsed == planned.plan) << q.id << "\n" << hint;
    EXPECT_EQ(optimizer::RenderPlanHint(reparsed, q), hint) << q.id;
  }
}

/// The hint parser must reject structurally broken hints instead of
/// handing the executor a malformed tree.
TEST(GoldenPlans, HintParserRejectsMalformedHints) {
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Small();
  options.seed = 42;
  const auto db = engine::Database::CreateImdb(options);
  const auto workload = query::LoadWorkload("job", db->schema());
  const query::Query& q = workload[0];
  optimizer::PhysicalPlan plan;
  std::string error;
  EXPECT_FALSE(optimizer::ParsePlanHint("", q, &plan, &error));
  EXPECT_FALSE(optimizer::ParsePlanHint("SeqScan(zz)", q, &plan, &error))
      << "unknown alias must be rejected";
  EXPECT_FALSE(optimizer::ParsePlanHint("HashJoin(SeqScan(t))", q, &plan,
                                        &error))
      << "join arity must be enforced";
  const std::string valid = optimizer::RenderPlanHint(
      db->PlanQuery(q).plan, q);
  EXPECT_FALSE(optimizer::ParsePlanHint(valid + ")", q, &plan, &error))
      << "trailing garbage must be rejected";
}

/// Serving the same fingerprint through the plan cache must return a plan
/// byte-identical to the cold plan — and both must match the fixture.
TEST(GoldenPlans, PlanCacheHitsAreByteIdenticalToFixture) {
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.is_open())
      << "missing " << GoldenPath()
      << " — run ./build/tests/test_golden_plans --update-golden";
  std::vector<std::string> golden_plans;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // "<id> | cost=<estimate> | <plan>" — keep the plan segment.
    golden_plans.push_back(line.substr(line.rfind(" | ") + 3));
  }

  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Small();
  options.seed = 42;
  const auto db = engine::Database::CreateImdb(options);
  const auto workload = query::LoadWorkload("job", db->schema());

  serve::ServerOptions server_options;
  server_options.workers = 2;
  serve::QueryServer server(db.get(), server_options);

  size_t g = 0;
  for (size_t i = 0; i < workload.size(); i += 5, ++g) {
    ASSERT_LT(g, golden_plans.size());
    const serve::ServedQuery cold = server.Submit(workload[i]).get();
    const serve::ServedQuery warm = server.Submit(workload[i]).get();
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_TRUE(warm.cache_hit) << workload[i].id;
    EXPECT_EQ(warm.plan, cold.plan) << workload[i].id;
    EXPECT_EQ(cold.plan, golden_plans[g]) << workload[i].id;
  }
  EXPECT_EQ(g, golden_plans.size());
}

/// The SQL route keys the plan cache on the normalized statement template
/// (constants stripped, serve::PlanCacheKeyForTemplate): resubmitting a
/// template with different literals must hit, and the served plan must be
/// byte-identical to the cold plan — which itself must match the struct
/// route's fixture plan (render→parse→bind is plan-preserving).
TEST(GoldenPlans, SqlTemplateCacheHitsAreByteIdenticalToFixture) {
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.is_open())
      << "missing " << GoldenPath()
      << " — run ./build/tests/test_golden_plans --update-golden";
  std::vector<std::string> golden_plans;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    golden_plans.push_back(line.substr(line.rfind(" | ") + 3));
  }

  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Small();
  options.seed = 42;
  const auto db = engine::Database::CreateImdb(options);
  const auto workload = query::LoadWorkload("job", db->schema());

  serve::ServerOptions server_options;
  server_options.workers = 2;
  serve::QueryServer server(db.get(), server_options);

  size_t g = 0;
  for (size_t i = 0; i < workload.size(); i += 5, ++g) {
    ASSERT_LT(g, golden_plans.size());
    const std::string sql = workload[i].ToSql(db->schema());
    const serve::ServedQuery cold =
        server.SubmitSql(sql, workload[i].id).get();
    ASSERT_TRUE(cold.status.ok()) << workload[i].id << ": "
                                  << cold.status.ToString();
    const serve::ServedQuery warm =
        server.SubmitSql(sql, workload[i].id).get();
    EXPECT_FALSE(cold.cache_hit) << workload[i].id;
    EXPECT_TRUE(warm.cache_hit) << workload[i].id;
    EXPECT_EQ(warm.plan, cold.plan) << workload[i].id;
    EXPECT_EQ(cold.plan, golden_plans[g]) << workload[i].id;
  }
  EXPECT_EQ(g, golden_plans.size());

  // The point of template keying: different literals, same template, warm
  // hit with a byte-identical plan.
  const serve::ServedQuery cold = server.SubmitSql(
      "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE "
      "mk.movie_id = t.id AND t.production_year > 2000;").get();
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  const serve::ServedQuery warm = server.SubmitSql(
      "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE "
      "mk.movie_id = t.id AND t.production_year > 1985;").get();
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.plan, cold.plan);

  // Malformed text resolves at admission with an anchored diagnostic and
  // never reaches the cache or the workers.
  const serve::ServedQuery bad =
      server.SubmitSql("SELECT COUNT(*) FROM nowhere x;").get();
  EXPECT_EQ(bad.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status.message().find("unknown table"), std::string::npos)
      << bad.status.message();
}

/// The execution-engine knob DbConfig::vectorized_exec is deliberately
/// invisible to the planner — its cost model stays pinned to the scalar
/// constants — and excluded from the plan cache key. So servers over
/// either engine must serve byte-identical plans, cold and from cache,
/// with identical result rows.
TEST(GoldenPlans, PlansAreByteIdenticalAcrossExecutionEngines) {
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Small();
  options.seed = 42;
  options.config.vectorized_exec = false;
  const auto scalar_db = engine::Database::CreateImdb(options);
  options.config.vectorized_exec = true;
  const auto vectorized_db = engine::Database::CreateImdb(options);
  const auto workload = query::LoadWorkload("job", vectorized_db->schema());

  serve::ServerOptions server_options;
  server_options.workers = 2;
  serve::QueryServer scalar_server(scalar_db.get(), server_options);
  serve::QueryServer vectorized_server(vectorized_db.get(), server_options);

  for (size_t i = 0; i < workload.size(); i += 5) {
    const query::Query& q = workload[i];
    const serve::ServedQuery scalar_cold = scalar_server.Submit(q).get();
    const serve::ServedQuery cold = vectorized_server.Submit(q).get();
    const serve::ServedQuery warm = vectorized_server.Submit(q).get();
    EXPECT_EQ(cold.plan, scalar_cold.plan) << q.id;
    EXPECT_EQ(cold.result_rows, scalar_cold.result_rows) << q.id;
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_TRUE(warm.cache_hit) << q.id;
    EXPECT_EQ(warm.plan, cold.plan) << q.id;
  }
}

}  // namespace
}  // namespace lqolab

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      lqolab::update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
