// Differential plan-correctness fuzzing (docs/fuzzing.md). The main test
// drives ~500 random queries through every oracle check — exhaustive plan
// enumeration, cross-plan execution, estimator invariants, plan-cache and
// hint round trips — and demands zero discrepancies. The committed corpus
// under tests/fuzz_corpus/ replays past findings and hand-picked shapes.
//
// Replay one reproducer directly:
//   ./build/tests/test_fuzz --replay tests/fuzz_corpus/<name>.sql

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/imdb_schema.h"
#include "digest.h"
#include "engine/database.h"
#include "exec/oracle.h"
#include "fuzz/corpus.h"
#include "fuzz/differential.h"
#include "fuzz/fuzzer.h"
#include "fuzz/query_generator.h"
#include "lqo/bao.h"
#include "lqo/native_passthrough.h"
#include "serve/query_server.h"

namespace lqolab {
namespace {

engine::Database* SharedDb() {
  static std::unique_ptr<engine::Database> db = [] {
    engine::Database::Options options;
    // Quarter of the Small profile: the differential oracle's execution
    // check is linear in table size, and a smaller database keeps the full
    // 500-query run inside the fuzz label's time budget while exercising
    // exactly the same code paths.
    options.profile = datagen::ScaleProfile::Small().Scaled(0.25);
    options.seed = 42;
    return engine::Database::CreateImdb(options);
  }();
  return db.get();
}

fuzz::GeneratorOptions TestGeneratorOptions() {
  return fuzz::GeneratorOptions{};
}

std::string Serialize(const query::Query& q) {
  return q.ToSql(SharedDb()->schema());
}

TEST(FuzzGenerator, DeterministicAcrossInstances) {
  fuzz::QueryGenerator a(&SharedDb()->context(), TestGeneratorOptions(), 7);
  fuzz::QueryGenerator b(&SharedDb()->context(), TestGeneratorOptions(), 7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(Serialize(a.Next()), Serialize(b.Next())) << "query " << i;
  }
}

TEST(FuzzGenerator, SeedChangesTheStream) {
  fuzz::QueryGenerator a(&SharedDb()->context(), TestGeneratorOptions(), 7);
  fuzz::QueryGenerator b(&SharedDb()->context(), TestGeneratorOptions(), 8);
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    if (Serialize(a.Next()) != Serialize(b.Next())) ++differing;
  }
  EXPECT_GT(differing, 10);
}

TEST(FuzzGenerator, RespectsBoundsAndConnectivity) {
  fuzz::GeneratorOptions options = TestGeneratorOptions();
  fuzz::QueryGenerator gen(&SharedDb()->context(), options, 11);
  bool saw_clique = false;
  bool saw_large = false;
  for (int i = 0; i < 200; ++i) {
    const query::Query q = gen.Next();
    ASSERT_GE(q.relation_count(), 1);
    ASSERT_LE(q.relation_count(), options.max_relations);
    ASSERT_TRUE(q.relation_count() < 2 || q.IsConnected(q.FullMask())) << q.id;
    // Cliques have more edges than any tree shape.
    if (static_cast<int32_t>(q.edges.size()) > q.join_count()) {
      saw_clique = true;
    }
    if (q.relation_count() >= 9) saw_large = true;
  }
  EXPECT_TRUE(saw_clique);
  EXPECT_TRUE(saw_large);
}

// Reproducers are one-entry SQL workload files. Note lines must never read
// as the `-- <id>` header, whose rule is "exactly one token after the
// dashes": a one-word note and a multi-line detail (a SQL line of one
// token) are the two ways a note could look like one.
TEST(FuzzCorpus, ReproducerFilesRoundTrip) {
  fuzz::QueryGenerator gen(&SharedDb()->context(), TestGeneratorOptions(), 5);
  const query::Query q = gen.Next();
  const std::string dir = ::testing::TempDir() + "fuzz_repro_roundtrip";
  const std::string note =
      "timeout\n"
      "sql_round_trip: re-rendered SQL is not byte-identical\n"
      "SELECT\n"
      "\n"
      "COUNT(*);";
  const std::string path =
      fuzz::WriteReproducer(dir, q, SharedDb()->schema(), note);
  ASSERT_FALSE(path.empty());
  query::Query back;
  const util::Status loaded =
      fuzz::LoadReproducer(path, SharedDb()->schema(), &back);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(back.id, q.id);
  EXPECT_EQ(exec::QueryFingerprint(back), exec::QueryFingerprint(q));
  EXPECT_EQ(fuzz::ListCorpus(dir), std::vector<std::string>{path});
}

// A reproducer that no longer loads (here: a column renamed away) must fail
// its replay with the loader's positioned diagnostic, not pass silently.
TEST(FuzzCorpus, UnloadableReproducerFailsReplay) {
  const std::string path = ::testing::TempDir() + "fuzz_unloadable.sql";
  {
    std::ofstream out(path);
    out << "-- note: a reproducer from an older schema\n"
        << "-- stale\n"
        << "SELECT COUNT(*) FROM title AS t WHERE t.year IS NULL;\n";
  }
  fuzz::Fuzzer fuzzer(SharedDb(), fuzz::FuzzOptions{});
  const fuzz::CheckReport report = fuzzer.Replay(path);
  ASSERT_EQ(report.discrepancies.size(), 1u);
  EXPECT_EQ(report.discrepancies[0].check, "reproducer_load");
  const std::string& detail = report.discrepancies[0].detail;
  EXPECT_NE(detail.find("fuzz_unloadable.sql:stale: 1:"), std::string::npos)
      << detail;
}

// A reproducer file is also a valid statement for the serve SQL route:
// pasted whole (comments and all) into SubmitSql on a pglite server it
// returns the rows a direct execution of the loaded query reports.
TEST(FuzzCorpus, CommittedReproducersPasteIntoSubmitSql) {
  const std::vector<std::string> corpus =
      fuzz::ListCorpus(LQOLAB_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(corpus.empty());
  engine::Database* db = SharedDb();
  serve::ServerOptions options;
  options.workers = 1;
  options.route = serve::RouteMode::kPglite;
  serve::QueryServer server(db, options);
  for (const std::string& path : corpus) {
    query::Query q;
    const util::Status loaded = fuzz::LoadReproducer(path, db->schema(), &q);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const serve::ServedQuery served = server.SubmitSql(text, q.id).get();
    ASSERT_TRUE(served.status.ok()) << path << ": " << served.status.ToString();
    const engine::QueryRun direct =
        db->ExecutePlan(q, db->PlanQuery(q).plan);
    EXPECT_EQ(served.result_rows, direct.result_rows) << path;
  }
}

TEST(FuzzShrink, ReducesToTheFailingCore) {
  // Synthetic failure: "any query touching movie_companies fails". Shrink
  // must strip the other relations and every predicate.
  using catalog::imdb::Table;
  query::Query q;
  q.id = "shrink_me";
  q.relations.push_back({Table::kTitle, "t"});
  q.relations.push_back({Table::kMovieCompanies, "mc"});
  q.relations.push_back({Table::kCompanyName, "cn"});
  q.edges.push_back({0, 0, 1, 1});
  q.edges.push_back({1, 2, 2, 0});
  query::Predicate pred;
  pred.alias = 0;
  pred.column = 3;
  pred.kind = query::Predicate::Kind::kNotNull;
  q.predicates.push_back(pred);

  const query::Query minimal =
      fuzz::Fuzzer::Shrink(q, [](const query::Query& candidate) {
        for (const auto& rel : candidate.relations) {
          if (rel.table == Table::kMovieCompanies) return true;
        }
        return false;
      });
  ASSERT_EQ(minimal.relation_count(), 1);
  EXPECT_EQ(minimal.relations[0].table, Table::kMovieCompanies);
  EXPECT_TRUE(minimal.predicates.empty());
  EXPECT_TRUE(minimal.edges.empty());
}

void ReportDiscrepancies(const std::vector<fuzz::Discrepancy>& discrepancies) {
  for (const fuzz::Discrepancy& d : discrepancies) {
    ADD_FAILURE() << d.check << ": " << d.detail;
  }
}

TEST(FuzzDifferential, FiveHundredQueriesZeroDiscrepancies) {
  fuzz::FuzzOptions options;
  options.seed = 42;
  options.num_queries = 500;
  options.corpus_dir = ::testing::TempDir() + "fuzz_found";
  fuzz::Fuzzer fuzzer(SharedDb(), options);
  lqo::NativePassthroughOptimizer passthrough;
  fuzzer.AddLqoArm(&passthrough);

  const fuzz::FuzzStats stats = fuzzer.Run();
  EXPECT_EQ(stats.queries, 500);
  ReportDiscrepancies(stats.discrepancies);
  EXPECT_TRUE(stats.reproducers.empty());
  // Every check family ran, exactly as often as pinned: a changed generator
  // or oracle constant (a relation or edge cap, the GEQO population, the
  // replan twin) moves these counts even when every check still passes.
  EXPECT_EQ(stats.checks.cost_enumeration, 314);
  EXPECT_EQ(stats.checks.execution, 261);
  EXPECT_EQ(stats.checks.estimator, 500);
  EXPECT_EQ(stats.checks.plan_cache, 2000);
  EXPECT_EQ(stats.checks.hint_roundtrip, 2000);
  EXPECT_EQ(stats.checks.fault_execution, 0);
  EXPECT_EQ(stats.checks.engine_differential, 261);
  EXPECT_EQ(stats.checks.sql_round_trip, 500);
  EXPECT_EQ(stats.checks.replan_differential, 261);
  EXPECT_EQ(stats.plans_executed, 1305);
  EXPECT_EQ(stats.timeouts, 0);
  // The generated queries themselves, as SQL text.
  fuzz::QueryGenerator generator(&SharedDb()->context(), options.generator,
                                 options.seed);
  testutil::Digest digest;
  for (int i = 0; i < 500; ++i) digest.Add(Serialize(generator.Next()));
  EXPECT_EQ(digest.value(), 0xeeb5cddd0572f8ccull)
      << std::hex << digest.value();
  std::printf("fuzz: %lld queries, %lld checks, %lld plans executed, "
              "%lld timeouts in %lld ms\n",
              static_cast<long long>(stats.queries),
              static_cast<long long>(stats.checks.total()),
              static_cast<long long>(stats.plans_executed),
              static_cast<long long>(stats.timeouts),
              static_cast<long long>(stats.elapsed_ms));
}

TEST(FuzzDifferential, BaoArmAgreesWithTheEngine) {
  // A shorter run with a real (untrained) LQO arm in the execution
  // cross-check; Bao plans under several hint-set overlays per query.
  fuzz::FuzzOptions options;
  options.seed = 7;
  options.num_queries = 60;
  options.generator.max_relations = 8;
  fuzz::Fuzzer fuzzer(SharedDb(), options);
  lqo::BaoOptimizer bao;
  fuzzer.AddLqoArm(&bao);
  const fuzz::FuzzStats stats = fuzzer.Run();
  EXPECT_EQ(stats.queries, 60);
  ReportDiscrepancies(stats.discrepancies);
}

TEST(FuzzDifferential, CommittedCorpusReplaysClean) {
  const std::vector<std::string> corpus =
      fuzz::ListCorpus(LQOLAB_FUZZ_CORPUS_DIR);
  ASSERT_GE(corpus.size(), 3u) << "committed corpus missing from "
                               << LQOLAB_FUZZ_CORPUS_DIR;
  fuzz::FuzzOptions options;
  fuzz::Fuzzer fuzzer(SharedDb(), options);
  lqo::NativePassthroughOptimizer passthrough;
  fuzzer.AddLqoArm(&passthrough);
  for (const std::string& path : corpus) {
    const fuzz::CheckReport report = fuzzer.Replay(path);
    EXPECT_FALSE(report.failed()) << path;
    ReportDiscrepancies(report.discrepancies);
  }
}

}  // namespace
}  // namespace lqolab

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--replay") {
      lqolab::fuzz::FuzzOptions options;
      lqolab::fuzz::Fuzzer fuzzer(lqolab::SharedDb(), options);
      lqolab::lqo::NativePassthroughOptimizer passthrough;
      fuzzer.AddLqoArm(&passthrough);
      const lqolab::fuzz::CheckReport report = fuzzer.Replay(argv[i + 1]);
      for (const auto& d : report.discrepancies) {
        std::printf("DISCREPANCY %s: %s\n", d.check.c_str(),
                    d.detail.c_str());
      }
      std::printf("%s: %lld checks, %zu discrepancies\n", argv[i + 1],
                  static_cast<long long>(report.checks.total()),
                  report.discrepancies.size());
      return report.failed() ? 1 : 0;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
