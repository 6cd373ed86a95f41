// Tests for the sql/ frontend (lexer, parser, binder, template
// normalization): the 113-query JOB-lite round trip, the corpus-driven
// golden diagnostics in tests/sql_corpus/, the .sql workload loaders, and
// adversarial inputs (deep nesting, megabyte literals, truncation at every
// byte) that must fail cleanly instead of crashing.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/imdb_schema.h"
#include "catalog/tpch_schema.h"
#include "exec/oracle.h"
#include "gtest/gtest.h"
#include "query/sql_workload.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/template.h"

namespace lqolab {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

std::vector<std::filesystem::path> CorpusFiles(const char* subdir) {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir =
      std::filesystem::path(LQOLAB_SQL_CORPUS_DIR) / subdir;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  EXPECT_FALSE(files.empty()) << dir;
  return files;
}

// Every valid corpus statement binds, and the bound query round-trips:
// render -> parse+bind -> identical fingerprint and byte-identical
// re-render.
TEST(SqlCorpus, ValidStatementsBindAndRoundTrip) {
  const catalog::Schema schema = catalog::BuildImdbSchema();
  for (const auto& path : CorpusFiles("valid")) {
    const std::string sql = ReadFile(path);
    query::Query q;
    const util::Status status = sql::ParseAndBindSql(sql, schema, &q);
    ASSERT_TRUE(status.ok()) << path << ": " << status.message();
    const std::string rendered = q.ToSql(schema);
    query::Query rebound;
    const util::Status again =
        sql::ParseAndBindSql(rendered, schema, &rebound);
    ASSERT_TRUE(again.ok()) << path << ": " << again.message();
    EXPECT_EQ(exec::QueryFingerprint(q), exec::QueryFingerprint(rebound))
        << path;
    EXPECT_EQ(rendered, rebound.ToSql(schema)) << path;
  }
}

// Every invalid corpus file carries its exact expected diagnostic in a
// leading `-- expect:` line; the frontend must reproduce it verbatim
// (golden error messages, including the line:col anchor and any "did you
// mean" suggestion).
TEST(SqlCorpus, InvalidStatementsReproduceGoldenDiagnostics) {
  const catalog::Schema schema = catalog::BuildImdbSchema();
  const std::string kPrefix = "-- expect: ";
  for (const auto& path : CorpusFiles("invalid")) {
    const std::string text = ReadFile(path);
    const size_t newline = text.find('\n');
    ASSERT_NE(newline, std::string::npos) << path;
    const std::string header = text.substr(0, newline);
    ASSERT_EQ(header.rfind(kPrefix, 0), 0u)
        << path << ": first line must be '-- expect: <diagnostic>'";
    const std::string expected = header.substr(kPrefix.size());
    const std::string sql = text.substr(newline + 1);
    query::Query q;
    const util::Status status = sql::ParseAndBindSql(sql, schema, &q);
    ASSERT_FALSE(status.ok()) << path;
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument) << path;
    EXPECT_EQ(status.message(), expected) << path;
  }
}

// JOB-lite is stored as the ToSql rendering of each query: every entry of
// workloads/job_lite.sql loads back and re-renders to exactly the statement
// in the file, so the file stays the canonical text of the workload.
TEST(SqlRoundTrip, AllJobLiteQueriesRoundTripByteIdentically) {
  const catalog::Schema schema = catalog::BuildImdbSchema();
  const auto workload = query::LoadWorkload("job", schema);
  ASSERT_EQ(workload.size(), 113u);
  // Statement lines of the file in order (each entry is one line after
  // its `-- <id>` header).
  std::vector<std::string> statements;
  std::istringstream file(ReadFile(std::filesystem::path(LQOLAB_WORKLOADS_DIR) /
                                   "job_lite.sql"));
  for (std::string line; std::getline(file, line);) {
    if (!line.empty() && line.rfind("--", 0) != 0) statements.push_back(line);
  }
  ASSERT_EQ(statements.size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(workload[i].ToSql(schema) + ";", statements[i])
        << workload[i].id;
  }
}

// The .sql workload files load through the frontend with the family
// structure the split samplers need.
TEST(SqlWorkloadFiles, JobComplexLiteLoads) {
  const catalog::Schema schema = catalog::BuildImdbSchema();
  const auto workload = query::LoadWorkload("job_complex", schema);
  std::set<int32_t> families;
  for (const query::Query& q : workload) {
    families.insert(q.template_id);
    EXPECT_GE(static_cast<int>(q.relations.size()), 2) << q.id;
  }
  EXPECT_GE(workload.size(), 60u);
  EXPECT_GE(families.size(), 30u);
  // The 'c' prefix maps onto the extended-JOB template-id range.
  EXPECT_EQ(workload.front().id, "c1a");
  EXPECT_EQ(workload.front().template_id, 101);
  EXPECT_EQ(workload.front().variant, 'a');
}

TEST(SqlWorkloadFiles, TpchLiteLoads) {
  const auto workload =
      query::LoadWorkload("tpch", catalog::BuildTpchSchema());
  std::set<int32_t> families;
  for (const query::Query& q : workload) families.insert(q.template_id);
  EXPECT_GE(workload.size(), 30u);
  EXPECT_GE(families.size(), 15u);
  EXPECT_EQ(workload.front().id, "h1a");
  EXPECT_EQ(workload.front().template_id, 101);
}

TEST(SqlWorkloadFiles, MissingFileReportsInvalidArgument) {
  const catalog::Schema schema = catalog::BuildImdbSchema();
  std::vector<query::Query> workload;
  const util::Status status =
      query::LoadSqlWorkloadFile("does_not_exist.sql", schema, &workload);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

// Template normalization: constants strip to `?`, IN lists collapse
// arity-independently, keywords and identifiers canonicalize — the
// properties the serve-path template cache key relies on.
TEST(SqlTemplate, LiteralsNormalizeAway) {
  const std::string a =
      "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990";
  const std::string b =
      "select count(*) from title t where t.production_year > 2005;";
  EXPECT_EQ(sql::NormalizeSqlTemplate(a), sql::NormalizeSqlTemplate(b));
  EXPECT_EQ(sql::SqlTemplateFingerprint(a), sql::SqlTemplateFingerprint(b));
}

TEST(SqlTemplate, InListArityIsNormalizedAway) {
  const std::string one =
      "SELECT COUNT(*) FROM title t WHERE t.kind_id IN (1)";
  const std::string three =
      "SELECT COUNT(*) FROM title t WHERE t.kind_id IN (1, 2, 3)";
  EXPECT_EQ(sql::NormalizeSqlTemplate(one),
            sql::NormalizeSqlTemplate(three));
}

TEST(SqlTemplate, DifferentStructureKeepsDistinctTemplates) {
  const std::string range =
      "SELECT COUNT(*) FROM title t WHERE t.production_year > 1990";
  const std::string other_column =
      "SELECT COUNT(*) FROM title t WHERE t.kind_id > 1990";
  EXPECT_NE(sql::SqlTemplateFingerprint(range),
            sql::SqlTemplateFingerprint(other_column));
}

TEST(SqlBinder, AssignQueryIdMapsWorkloadNaming) {
  query::Query q;
  sql::AssignQueryId("13a", &q);
  EXPECT_EQ(q.template_id, 13);
  EXPECT_EQ(q.variant, 'a');
  sql::AssignQueryId("c1a", &q);
  EXPECT_EQ(q.template_id, 101);
  EXPECT_EQ(q.variant, 'a');
  sql::AssignQueryId("h16b", &q);
  EXPECT_EQ(q.template_id, 116);
  EXPECT_EQ(q.variant, 'b');
  sql::AssignQueryId("adhoc", &q);
  EXPECT_EQ(q.template_id, 0);
}

// --- Adversarial inputs: reject cleanly, never crash (the suite runs
// under the LQOLAB_SANITIZE matrix). ---

std::string NestedQuery(int depth) {
  std::string sql = "SELECT COUNT(*) FROM title t WHERE ";
  sql.append(static_cast<size_t>(depth), '(');
  sql += "t.production_year > 2000";
  sql.append(static_cast<size_t>(depth), ')');
  return sql;
}

TEST(SqlAdversarial, GroupNestingIsDepthCapped) {
  const catalog::Schema schema = catalog::BuildImdbSchema();
  query::Query q;
  EXPECT_TRUE(
      sql::ParseAndBindSql(NestedQuery(sql::kMaxGroupDepth), schema, &q)
          .ok());
  const util::Status over =
      sql::ParseAndBindSql(NestedQuery(sql::kMaxGroupDepth + 1), schema, &q);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.message().find("nested deeper"), std::string::npos);
  // Far past the cap: still a clean diagnostic, no stack exhaustion.
  EXPECT_FALSE(sql::ParseAndBindSql(NestedQuery(20000), schema, &q).ok());
}

TEST(SqlAdversarial, MegabyteLiteralsAreHandled) {
  const catalog::Schema schema = catalog::BuildImdbSchema();
  const std::string huge(1 << 20, 'x');
  query::Query q;
  // A 1 MB equality literal binds (it simply matches nothing).
  EXPECT_TRUE(sql::ParseAndBindSql(
                  "SELECT COUNT(*) FROM title t WHERE t.title = '" + huge +
                      "'",
                  schema, &q)
                  .ok());
  // A 1 MB identifier is an unknown table with a bounded diagnostic.
  const util::Status status = sql::ParseAndBindSql(
      "SELECT COUNT(*) FROM " + huge, schema, &q);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(SqlAdversarial, TruncationAtEveryByteNeverCrashes) {
  const catalog::Schema schema = catalog::BuildImdbSchema();
  const std::string sample =
      "SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id = "
      "mk.movie_id AND mk.keyword_id IN (1, 2) AND t.title LIKE 'pre%';";
  for (size_t n = 0; n < sample.size(); ++n) {
    query::Query q;
    // Most prefixes fail; all must return instead of crashing.
    sql::ParseAndBindSql(sample.substr(0, n), schema, &q);
  }
  // Unterminated tokens specifically.
  query::Query q;
  EXPECT_FALSE(sql::ParseAndBindSql("SELECT COUNT(*) FROM title t WHERE "
                                    "t.title = 'open",
                                    schema, &q)
                   .ok());
  EXPECT_FALSE(sql::ParseAndBindSql("SELECT", schema, &q).ok());
  EXPECT_FALSE(sql::ParseAndBindSql("", schema, &q).ok());
}

}  // namespace
}  // namespace lqolab
