// Tests for the query model, predicate binding, and the JOB-lite and
// Ext-JOB-lite workload files.

#include <map>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "catalog/imdb_schema.h"
#include "exec/oracle.h"
#include "query/predicate_binding.h"
#include "query/query.h"
#include "query/sql_workload.h"

namespace lqolab::query {
namespace {

class QueryModelTest : public ::testing::Test {
 protected:
  QueryModelTest() : schema_(catalog::BuildImdbSchema()) {
    // A 4-relation chain: A - B - C with an extra edge A - C and a dangler D.
    q_.id = "test";
    q_.relations = {{catalog::imdb::kTitle, "t"},
                    {catalog::imdb::kMovieKeyword, "mk"},
                    {catalog::imdb::kKeyword, "k"},
                    {catalog::imdb::kMovieInfo, "mi"}};
    q_.edges = {{0, 0, 1, 1},   // t.id = mk.movie_id
                {1, 2, 2, 0},   // mk.keyword_id = k.id
                {0, 0, 3, 1}};  // t.id = mi.movie_id
  }
  catalog::Schema schema_;
  Query q_;
};

TEST_F(QueryModelTest, MaskHelpers) {
  EXPECT_EQ(MaskOf(0), 1u);
  EXPECT_EQ(MaskOf(3), 8u);
  EXPECT_EQ(q_.FullMask(), 0b1111u);
  EXPECT_EQ(q_.join_count(), 3);
}

TEST_F(QueryModelTest, Adjacency) {
  EXPECT_EQ(q_.AdjacencyMask(0), MaskOf(1) | MaskOf(3));
  EXPECT_EQ(q_.AdjacencyMask(2), MaskOf(1));
}

TEST_F(QueryModelTest, Connectivity) {
  EXPECT_TRUE(q_.IsConnected(0b1111));
  EXPECT_TRUE(q_.IsConnected(0b0011));
  EXPECT_TRUE(q_.IsConnected(0b1001));  // t-mi
  EXPECT_FALSE(q_.IsConnected(0b1100)); // k and mi are not adjacent
  EXPECT_FALSE(q_.IsConnected(0b0101)); // t and k are not adjacent
  EXPECT_TRUE(q_.IsConnected(0b0001));  // singleton
  EXPECT_FALSE(q_.IsConnected(0));
}

TEST_F(QueryModelTest, EdgesBetweenNormalizesDirection) {
  const auto edges = q_.EdgesBetween(MaskOf(2), MaskOf(1));
  ASSERT_EQ(edges.size(), 1u);
  // Left side must be within the first mask (k).
  EXPECT_EQ(edges[0].left_alias, 2);
  EXPECT_EQ(edges[0].right_alias, 1);
}

TEST_F(QueryModelTest, HasEdgeBetween) {
  EXPECT_TRUE(q_.HasEdgeBetween(0b0001, 0b0010));
  EXPECT_FALSE(q_.HasEdgeBetween(0b0001, 0b0100));
  EXPECT_TRUE(q_.HasEdgeBetween(0b0011, 0b0100));
}

TEST_F(QueryModelTest, ToSqlMentionsEverything) {
  Predicate p;
  p.alias = 0;
  p.column = 3;  // production_year
  p.kind = Predicate::Kind::kRange;
  p.int_values = {1990, 2000};
  q_.predicates.push_back(p);
  const std::string sql = q_.ToSql(schema_);
  EXPECT_NE(sql.find("SELECT COUNT(*)"), std::string::npos);
  EXPECT_NE(sql.find("title AS t"), std::string::npos);
  EXPECT_NE(sql.find("t.id = mk.movie_id"), std::string::npos);
  EXPECT_NE(sql.find("BETWEEN 1990 AND 2000"), std::string::npos);
}

TEST(PredicateBinding, ResolvesStringLiterals) {
  catalog::TableDef def;
  def.name = "d";
  def.columns = {{"id", catalog::ColumnType::kInt},
                 {"s", catalog::ColumnType::kString}};
  storage::Table table(0, def);
  const storage::Value hello = table.column(1).InternString("hello");
  table.AppendRow({1, hello});
  Predicate p;
  p.alias = 0;
  p.column = 1;
  p.kind = Predicate::Kind::kIn;
  p.str_values = {"hello", "missing"};
  const BoundPredicate bound = BindPredicate(p, table);
  ASSERT_EQ(bound.values.size(), 1u);  // "missing" resolves to nothing
  EXPECT_TRUE(bound.Matches(hello));
  EXPECT_FALSE(bound.Matches(hello + 1));
  EXPECT_FALSE(bound.Matches(storage::kNullValue));
}

TEST(PredicateBinding, NullPredicates) {
  catalog::TableDef def;
  def.name = "d";
  def.columns = {{"id", catalog::ColumnType::kInt},
                 {"v", catalog::ColumnType::kInt}};
  storage::Table table(0, def);
  Predicate is_null;
  is_null.kind = Predicate::Kind::kIsNull;
  is_null.column = 1;
  Predicate not_null;
  not_null.kind = Predicate::Kind::kNotNull;
  not_null.column = 1;
  EXPECT_TRUE(BindPredicate(is_null, table).Matches(storage::kNullValue));
  EXPECT_FALSE(BindPredicate(is_null, table).Matches(5));
  EXPECT_FALSE(BindPredicate(not_null, table).Matches(storage::kNullValue));
  EXPECT_TRUE(BindPredicate(not_null, table).Matches(5));
}

TEST(PredicateBinding, RangeSemantics) {
  catalog::TableDef def;
  def.name = "d";
  def.columns = {{"id", catalog::ColumnType::kInt},
                 {"v", catalog::ColumnType::kInt}};
  storage::Table table(0, def);
  Predicate p;
  p.column = 1;
  p.kind = Predicate::Kind::kRange;
  p.int_values = {10, 20};
  const BoundPredicate bound = BindPredicate(p, table);
  EXPECT_TRUE(bound.Matches(10));
  EXPECT_TRUE(bound.Matches(20));
  EXPECT_FALSE(bound.Matches(9));
  EXPECT_FALSE(bound.Matches(21));
  EXPECT_FALSE(bound.Matches(storage::kNullValue));
}

/// FNV-1a over each query's identity in workload order: QueryFingerprint
/// (id, relations, edges, predicates), template_id and variant.
uint64_t IdentityDigest(const std::vector<Query>& workload) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Query& q : workload) {
    mix(exec::QueryFingerprint(q));
    mix(static_cast<uint32_t>(q.template_id));
    mix(static_cast<unsigned char>(q.variant));
  }
  return h;
}

// Pins every query's identity in file order. The digests were computed
// from the code that generated JOB-lite and Ext-JOB-lite before they were
// stored as SQL, so any drift in a query's structure, id, family or variant
// (or in the file order) fails here.
TEST(WorkloadFiles, QueryIdentityIsPinned) {
  const catalog::Schema schema = catalog::BuildImdbSchema();
  const auto job = LoadWorkload("job", schema);
  ASSERT_EQ(job.size(), 113u);
  EXPECT_EQ(IdentityDigest(job), 0x4169dc49e3052f36ULL);
  const auto ext = LoadWorkload("ext_job", schema);
  ASSERT_EQ(ext.size(), 20u);
  EXPECT_EQ(ext.front().id, "e1a");
  EXPECT_EQ(ext.back().id, "e10b");
  EXPECT_EQ(IdentityDigest(ext), 0x22555acd0f14aadbULL);
}

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest()
      : schema_(catalog::BuildImdbSchema()),
        workload_(LoadWorkload("job", schema_)) {}
  catalog::Schema schema_;
  std::vector<Query> workload_;
};

// Like the real Join Order Benchmark: 33 templates whose 2-6 filter
// variants add up to 113 queries (paper §7.2).
TEST_F(WorkloadTest, Has113QueriesOver33Templates) {
  EXPECT_EQ(workload_.size(), 113u);
  std::set<int32_t> templates;
  for (const auto& q : workload_) templates.insert(q.template_id);
  EXPECT_EQ(templates.size(), 33u);
}

TEST_F(WorkloadTest, VariantCountsMatchJob) {
  // Family sizes of the real JOB, templates 1..33.
  const std::vector<int32_t> expected = {
      4, 4, 3, 3, 3, 6, 3, 4, 4, 3,  // 1-10
      4, 3, 4, 3, 4, 4, 6, 3, 4, 3,  // 11-20
      3, 4, 3, 2, 3, 3, 3, 3, 3, 3,  // 21-30
      3, 2, 3};                      // 31-33
  std::map<int32_t, int32_t> counts;
  for (const auto& q : workload_) ++counts[q.template_id];
  ASSERT_EQ(counts.size(), expected.size());
  for (int32_t t = 1; t <= 33; ++t) {
    EXPECT_EQ(counts[t], expected[static_cast<size_t>(t - 1)]) << t;
  }
}

TEST_F(WorkloadTest, IdsUnique) {
  std::set<std::string> ids;
  for (const auto& q : workload_) ids.insert(q.id);
  EXPECT_EQ(ids.size(), workload_.size());
}

TEST_F(WorkloadTest, AllConnected) {
  for (const auto& q : workload_) {
    EXPECT_TRUE(q.IsConnected(q.FullMask())) << q.id;
  }
}

TEST_F(WorkloadTest, JoinCountDistributionMatchesJob) {
  int32_t min_joins = 100;
  int32_t max_joins = 0;
  int32_t geqo_range = 0;  // queries with >= 12 FROM items
  for (const auto& q : workload_) {
    min_joins = std::min(min_joins, q.join_count());
    max_joins = std::max(max_joins, q.join_count());
    if (q.relation_count() >= 12) ++geqo_range;
  }
  EXPECT_EQ(min_joins, 3);   // smallest JOB queries have 3 joins
  EXPECT_EQ(max_joins, 16);  // JOB 29 has 17 aliased tables
  EXPECT_GT(geqo_range, 10); // a meaningful set falls in GEQO territory
}

TEST_F(WorkloadTest, VariantsOfFamilyShareJoinStructure) {
  // Variants of one base query share tables and join graph; only filters
  // differ (paper §7.2).
  for (size_t i = 0; i + 1 < workload_.size(); ++i) {
    const Query& a = workload_[i];
    const Query& b = workload_[i + 1];
    if (a.template_id != b.template_id) continue;
    ASSERT_EQ(a.relations.size(), b.relations.size()) << a.id;
    for (size_t r = 0; r < a.relations.size(); ++r) {
      EXPECT_EQ(a.relations[r].table, b.relations[r].table) << a.id;
    }
    ASSERT_EQ(a.edges.size(), b.edges.size()) << a.id;
  }
}

TEST_F(WorkloadTest, VariantsDifferInPredicates) {
  int differing_pairs = 0;
  for (size_t i = 0; i + 1 < workload_.size(); ++i) {
    const Query& a = workload_[i];
    const Query& b = workload_[i + 1];
    if (a.template_id != b.template_id) continue;
    std::string sig_a;
    std::string sig_b;
    for (const auto& p : a.predicates) sig_a += p.Signature();
    for (const auto& p : b.predicates) sig_b += p.Signature();
    if (sig_a != sig_b) ++differing_pairs;
  }
  EXPECT_GT(differing_pairs, 60);
}

TEST_F(WorkloadTest, EveryAliasReachable) {
  for (const auto& q : workload_) {
    for (AliasId a = 0; a < q.relation_count(); ++a) {
      EXPECT_NE(q.AdjacencyMask(a), 0u) << q.id << " alias " << a;
    }
  }
}

TEST_F(WorkloadTest, AliasNamesUniqueWithinQuery) {
  for (const auto& q : workload_) {
    std::set<std::string> names;
    for (const auto& rel : q.relations) names.insert(rel.alias);
    EXPECT_EQ(names.size(), q.relations.size()) << q.id;
  }
}

TEST_F(WorkloadTest, FingerprintsUniqueAndStable) {
  std::unordered_set<uint64_t> fingerprints;
  for (const auto& q : workload_) {
    fingerprints.insert(exec::QueryFingerprint(q));
  }
  EXPECT_EQ(fingerprints.size(), workload_.size());
  // Stable across reloads of the same workload.
  const auto again = LoadWorkload("job", schema_);
  for (size_t i = 0; i < workload_.size(); ++i) {
    EXPECT_EQ(exec::QueryFingerprint(workload_[i]),
              exec::QueryFingerprint(again[i]));
  }
}

TEST_F(WorkloadTest, BuildSingleQueryMatchesWorkloadEntry) {
  const Query q = LoadWorkloadQuery("job", "13b", schema_);
  const auto it = std::find_if(workload_.begin(), workload_.end(),
                               [](const Query& w) { return w.id == "13b"; });
  ASSERT_NE(it, workload_.end());
  EXPECT_EQ(exec::QueryFingerprint(q), exec::QueryFingerprint(*it));
  EXPECT_EQ(q.template_id, 13);
  EXPECT_EQ(q.variant, 'b');
}

}  // namespace
}  // namespace lqolab::query
