// Correctness tests for the true-cardinality oracle: filtered base rows and
// join cardinalities are checked against a brute-force reference evaluator.

#include <algorithm>
#include <bit>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "exec/oracle.h"
#include "query/predicate_binding.h"
#include "query/sql_workload.h"

namespace lqolab::exec {
namespace {

using query::AliasId;
using query::AliasMask;
using query::Query;
using storage::RowId;

/// Brute-force reference: nested loops over filtered row lists, checking
/// every edge within the mask. Exponential; use on small masks only.
int64_t BruteForceJoinCount(const DbContext& ctx, Oracle* oracle,
                            const Query& q, AliasMask mask) {
  std::vector<AliasId> members;
  for (AliasId a = 0; a < q.relation_count(); ++a) {
    if (mask & query::MaskOf(a)) members.push_back(a);
  }
  std::vector<const std::vector<RowId>*> rows;
  for (AliasId a : members) rows.push_back(&oracle->FilteredRows(q, a));

  std::vector<query::JoinEdge> edges;
  for (const auto& edge : q.edges) {
    if ((mask & query::MaskOf(edge.left_alias)) &&
        (mask & query::MaskOf(edge.right_alias))) {
      edges.push_back(edge);
    }
  }
  auto value_of = [&](AliasId alias, catalog::ColumnId column, RowId row) {
    return ctx.table(q.relations[static_cast<size_t>(alias)].table)
        .column(column)
        .at(row);
  };
  auto position = [&](AliasId alias) {
    for (size_t i = 0; i < members.size(); ++i) {
      if (members[i] == alias) return i;
    }
    return members.size();
  };

  int64_t count = 0;
  std::vector<RowId> assignment(members.size());
  std::function<void(size_t)> recurse = [&](size_t level) {
    if (level == members.size()) {
      for (const auto& edge : edges) {
        const auto lv = value_of(edge.left_alias, edge.left_column,
                                 assignment[position(edge.left_alias)]);
        const auto rv = value_of(edge.right_alias, edge.right_column,
                                 assignment[position(edge.right_alias)]);
        if (lv == storage::kNullValue || lv != rv) return;
      }
      ++count;
      return;
    }
    for (RowId r : *rows[level]) {
      assignment[level] = r;
      recurse(level + 1);
    }
  };
  recurse(0);
  return count;
}

class OracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine::Database::Options options;
    options.profile = datagen::ScaleProfile::Medium().Scaled(0.01);
    options.seed = 42;
    db_ = engine::Database::CreateImdb(options).release();
    workload_ = new std::vector<Query>(
        query::LoadWorkload("job", db_->schema()));
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete db_;
    workload_ = nullptr;
    db_ = nullptr;
  }
  static engine::Database* db_;
  static std::vector<Query>* workload_;
};

engine::Database* OracleTest::db_ = nullptr;
std::vector<Query>* OracleTest::workload_ = nullptr;

TEST_F(OracleTest, FilteredRowsMatchPredicates) {
  for (size_t i = 0; i < workload_->size(); i += 11) {
    const Query& q = (*workload_)[i];
    for (AliasId a = 0; a < q.relation_count(); ++a) {
      const auto& rows = db_->oracle().FilteredRows(q, a);
      const auto& preds = db_->oracle().BoundPredicates(q, a);
      const auto& table =
          db_->context().table(q.relations[static_cast<size_t>(a)].table);
      // Every returned row satisfies all predicates.
      for (RowId r : rows) {
        for (const auto& pred : preds) {
          ASSERT_TRUE(pred.Matches(table.column(pred.column).at(r)))
              << q.id << " alias " << a;
        }
      }
      // Count matches an independent scan.
      int64_t expected = 0;
      for (RowId r = 0; r < table.row_count(); ++r) {
        bool all = true;
        for (const auto& pred : preds) {
          if (!pred.Matches(table.column(pred.column).at(r))) {
            all = false;
            break;
          }
        }
        if (all) ++expected;
      }
      ASSERT_EQ(static_cast<int64_t>(rows.size()), expected)
          << q.id << " alias " << a;
    }
  }
}

TEST_F(OracleTest, PairJoinsMatchBruteForce) {
  int checked = 0;
  for (size_t i = 0; i < workload_->size(); i += 9) {
    const Query& q = (*workload_)[i];
    for (const auto& edge : q.edges) {
      const AliasMask mask =
          query::MaskOf(edge.left_alias) | query::MaskOf(edge.right_alias);
      // Keep brute force tractable.
      const int64_t la = db_->oracle().TrueBaseRows(q, edge.left_alias);
      const int64_t ra = db_->oracle().TrueBaseRows(q, edge.right_alias);
      if (la * ra > 4'000'000) continue;
      const auto result = db_->oracle().TrueJoinRows(q, mask);
      ASSERT_FALSE(result.overflow);
      const int64_t expected =
          BruteForceJoinCount(db_->context(), &db_->oracle(), q, mask);
      ASSERT_EQ(result.rows, expected) << q.id;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

TEST_F(OracleTest, TripleJoinsMatchBruteForce) {
  int checked = 0;
  for (size_t i = 0; i < workload_->size(); i += 13) {
    const Query& q = (*workload_)[i];
    // All connected 3-subsets with small bases.
    for (AliasMask mask = 1; mask <= q.FullMask(); ++mask) {
      if (std::popcount(mask) != 3 || !q.IsConnected(mask)) continue;
      double product = 1;
      AliasMask bits = mask;
      while (bits) {
        product *= std::max<int64_t>(
            1, db_->oracle().TrueBaseRows(
                   q, static_cast<AliasId>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
      if (product > 2'000'000) continue;
      const auto result = db_->oracle().TrueJoinRows(q, mask);
      ASSERT_FALSE(result.overflow);
      ASSERT_EQ(result.rows, BruteForceJoinCount(db_->context(),
                                                 &db_->oracle(), q, mask))
          << q.id << " mask " << mask;
      if (++checked > 40) return;
    }
  }
}

TEST_F(OracleTest, MemoizationIsConsistent) {
  const Query& q = (*workload_)[0];
  const auto first = db_->oracle().TrueJoinRows(q, q.FullMask());
  const auto second = db_->oracle().TrueJoinRows(q, q.FullMask());
  EXPECT_EQ(first.rows, second.rows);
  EXPECT_EQ(first.overflow, second.overflow);
}

TEST_F(OracleTest, ReleaseMaterializationsKeepsCards) {
  const Query& q = (*workload_)[5];
  const auto before = db_->oracle().TrueJoinRows(q, q.FullMask());
  db_->oracle().ReleaseMaterializations();
  EXPECT_EQ(db_->oracle().materialization_bytes(), 0);
  const auto after = db_->oracle().TrueJoinRows(q, q.FullMask());
  EXPECT_EQ(before.rows, after.rows);
}

TEST_F(OracleTest, SubsetOrderIndependence) {
  // The cardinality of a mask must not depend on the order in which other
  // masks were requested: ask in different orders on two query copies with
  // distinct ids (separate memo entries).
  Query a = (*workload_)[20];
  Query b = a;
  b.id += "_copy";
  // Build prefix masks along the relation order.
  std::vector<AliasMask> prefixes;
  AliasMask mask = 0;
  for (AliasId r = 0; r < a.relation_count(); ++r) {
    query::AliasId next = -1;
    for (AliasId c = 0; c < a.relation_count(); ++c) {
      if (mask & query::MaskOf(c)) continue;
      if (mask == 0 || (a.AdjacencyMask(c) & mask)) {
        next = c;
        break;
      }
    }
    mask |= query::MaskOf(next);
    prefixes.push_back(mask);
  }
  // Query a: ascending; query b: full mask first (forces fresh evaluation).
  std::vector<int64_t> rows_a;
  for (AliasMask m : prefixes) {
    rows_a.push_back(db_->oracle().TrueJoinRows(a, m).rows);
  }
  std::vector<int64_t> rows_b;
  rows_b.resize(prefixes.size());
  for (size_t i = prefixes.size(); i > 0; --i) {
    rows_b[i - 1] = db_->oracle().TrueJoinRows(b, prefixes[i - 1]).rows;
  }
  EXPECT_EQ(rows_a, rows_b);
}

TEST_F(OracleTest, SinglePredicateRowsSupersetOfFiltered) {
  for (size_t i = 0; i < workload_->size(); i += 17) {
    const Query& q = (*workload_)[i];
    for (AliasId a = 0; a < q.relation_count(); ++a) {
      const auto& preds = db_->oracle().BoundPredicates(q, a);
      if (preds.empty()) continue;
      const auto& all = db_->oracle().FilteredRows(q, a);
      const auto& single = db_->oracle().SinglePredicateRows(q, a, 0);
      EXPECT_GE(single.size(), all.size()) << q.id;
      // Filtered rows are a subset of any single predicate's matches.
      EXPECT_TRUE(std::includes(single.begin(), single.end(), all.begin(),
                                all.end()))
          << q.id;
    }
  }
}

TEST_F(OracleTest, FingerprintSensitivity) {
  Query q = (*workload_)[3];
  const uint64_t original = QueryFingerprint(q);
  Query modified = q;
  ASSERT_FALSE(modified.predicates.empty());
  modified.predicates[0].int_values.push_back(12345);
  EXPECT_NE(QueryFingerprint(modified), original);
  Query renamed = q;
  renamed.id = "other";
  EXPECT_NE(QueryFingerprint(renamed), original);
}

/// Property sweep: for every query, the full-mask cardinality matches the
/// Yannakakis tree count when the query is acyclic (cross-check of the two
/// independent evaluation paths).
class OracleFullMaskProperty : public ::testing::TestWithParam<int> {};

TEST_P(OracleFullMaskProperty, TreeCountAgreesWithMaterialization) {
  static engine::Database* db = [] {
    engine::Database::Options options;
    options.profile = datagen::ScaleProfile::Medium().Scaled(0.01);
    options.seed = 99;
    return engine::Database::CreateImdb(options).release();
  }();
  const auto workload = query::LoadWorkload("job", db->schema());
  const Query& q = workload[static_cast<size_t>(GetParam())];
  if (q.edges.size() != static_cast<size_t>(q.relation_count() - 1)) {
    GTEST_SKIP() << "cyclic query";
  }
  // Two structurally identical queries with different ids get independent
  // memos; the second is evaluated only at the full mask, which (with no
  // cached submask) exercises the fresh/semi-join/tree paths.
  Query twin = q;
  twin.id += "_twin";
  const auto a = db->oracle().TrueJoinRows(q, q.FullMask());
  const auto b = db->oracle().TrueJoinRows(twin, twin.FullMask());
  if (a.overflow || b.overflow) GTEST_SKIP();
  EXPECT_EQ(a.rows, b.rows) << q.id;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, OracleFullMaskProperty,
                         ::testing::Range(0, 113, 3));

}  // namespace
}  // namespace lqolab::exec
