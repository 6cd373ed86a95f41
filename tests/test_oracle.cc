// Correctness tests for the true-cardinality oracle: filtered base rows and
// join cardinalities are checked against a brute-force reference evaluator.

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "exec/oracle.h"
#include "fuzz/scalar_oracle.h"
#include "obs/metrics.h"
#include "query/predicate_binding.h"
#include "query/sql_workload.h"
#include "sql/binder.h"

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

// ---------------------------------------------------------------------------
// The replica-wide base cache and its build tables.
// ---------------------------------------------------------------------------

Query BindSql(const std::string& text, const std::string& id,
              const catalog::Schema& schema) {
  Query q;
  const util::Status status = sql::ParseAndBindSql(text, schema, &q);
  EXPECT_TRUE(status.ok()) << status.message();
  sql::AssignQueryId(id, &q);
  return q;
}

AliasId AliasNamed(const Query& q, const std::string& name) {
  for (AliasId a = 0; a < q.relation_count(); ++a) {
    if (q.relations[static_cast<size_t>(a)].alias == name) return a;
  }
  ADD_FAILURE() << "no alias " << name << " in " << q.id;
  return 0;
}

/// A filtered title joined with filtered movie_companies: both sides have
/// predicates, so the pair's join builds a hash table over the larger one.
/// company_name is there to keep mc on the pair's frontier: the pair's
/// intermediate holds one mc row id and one weight per result row, where
/// a two-relation query's root would hold its count alone.
constexpr const char* kPairSql =
    "SELECT COUNT(*) FROM title AS t, movie_companies AS mc, "
    "company_name AS cn "
    "WHERE t.id = mc.movie_id AND mc.company_id = cn.id "
    "AND t.production_year BETWEEN 1990 AND 2005 "
    "AND t.kind_id IN (1, 2) AND mc.note IS NOT NULL";

struct BuildCounts {
  int64_t builds;
  int64_t reuses;
};

/// The t–mc pair join of kPairSql under a fresh query id (a fresh memo),
/// with the hash builds and build-table reuses it took.
BuildCounts RequestPairJoin(Oracle* oracle, const catalog::Schema& schema,
                            const std::string& id, int64_t* rows = nullptr) {
  const Query q = BindSql(kPairSql, id, schema);
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  const AliasMask pair =
      query::MaskOf(AliasNamed(q, "t")) | query::MaskOf(AliasNamed(q, "mc"));
  const Oracle::CardResult card = oracle->TrueJoinRows(q, pair);
  EXPECT_FALSE(card.overflow);
  if (rows != nullptr) *rows = card.rows;
  return {metrics.Get(obs::Counter::kOracleHashBuilds),
          metrics.Get(obs::Counter::kOracleBuildReuses)};
}

TEST_F(OracleTest, BaseCacheKeyIgnoresAliasesIdsAndPredicateOrder) {
  const auto replica = db_->CloneContextForWorker();
  Oracle& oracle = replica->oracle();
  const catalog::Schema& schema = db_->schema();
  const Query a = BindSql(kPairSql, "base_a", schema);
  const Query b = BindSql(
      "SELECT COUNT(*) FROM movie_companies AS x, title AS m "
      "WHERE x.note IS NOT NULL AND m.kind_id IN (2, 1) "
      "AND m.production_year BETWEEN 1990 AND 2005 AND m.id = x.movie_id",
      "base_b", schema);
  const Query c = BindSql(
      "SELECT COUNT(*) FROM title AS t, movie_companies AS mc "
      "WHERE t.id = mc.movie_id AND t.production_year BETWEEN 1990 AND 2006 "
      "AND t.kind_id IN (1, 2) AND mc.note IS NOT NULL",
      "base_c", schema);

  const auto& a_title = oracle.FilteredRows(a, AliasNamed(a, "t"));
  const auto& a_mc = oracle.FilteredRows(a, AliasNamed(a, "mc"));
  EXPECT_EQ(oracle.cached_bases(), 2);
  {
    obs::MetricsRegistry metrics;
    obs::MetricsScope scope(&metrics);
    EXPECT_EQ(&oracle.FilteredRows(b, AliasNamed(b, "m")), &a_title);
    EXPECT_EQ(&oracle.FilteredRows(b, AliasNamed(b, "x")), &a_mc);
    EXPECT_EQ(metrics.Get(obs::Counter::kOracleBaseReuses), 2);
  }
  EXPECT_EQ(oracle.cached_bases(), 2);

  // One literal apart: a new entry, scanned on its own.
  const auto& c_title = oracle.FilteredRows(c, AliasNamed(c, "t"));
  EXPECT_NE(&c_title, &a_title);
  EXPECT_EQ(oracle.cached_bases(), 3);
  EXPECT_EQ(&oracle.FilteredRows(c, AliasNamed(c, "mc")), &a_mc);
  EXPECT_TRUE(std::includes(c_title.begin(), c_title.end(), a_title.begin(),
                            a_title.end()));

  // A single predicate is a one-predicate base: mc's only predicate is its
  // whole filter, so both requests share one list.
  const AliasId mc = AliasNamed(a, "mc");
  EXPECT_EQ(&oracle.SinglePredicateRows(a, mc, 0), &a_mc);
  EXPECT_EQ(oracle.cached_bases(), 3);
}

TEST_F(OracleTest, BuildTableIsKeptOnlyOnSecondRequest) {
  const auto replica = db_->CloneContextForWorker();
  Oracle& oracle = replica->oracle();
  const catalog::Schema& schema = db_->schema();
  int64_t rows[3];
  // First request: a scratch build, nothing kept.
  const BuildCounts first = RequestPairJoin(&oracle, schema, "pair_1", &rows[0]);
  EXPECT_EQ(first.builds, 1);
  EXPECT_EQ(first.reuses, 0);
  // Second request: the key was seen, so this build fills the cache.
  const BuildCounts second =
      RequestPairJoin(&oracle, schema, "pair_2", &rows[1]);
  EXPECT_EQ(second.builds, 1);
  EXPECT_EQ(second.reuses, 0);
  // Third request: probes the kept table.
  const BuildCounts third = RequestPairJoin(&oracle, schema, "pair_3", &rows[2]);
  EXPECT_EQ(third.builds, 0);
  EXPECT_EQ(third.reuses, 1);
  EXPECT_EQ(rows[0], rows[1]);
  EXPECT_EQ(rows[0], rows[2]);
  EXPECT_GT(rows[0], 0);
}

TEST_F(OracleTest, ClonedReplicaStartsWithEmptyCaches) {
  const auto parent = db_->CloneContextForWorker();
  const catalog::Schema& schema = db_->schema();
  RequestPairJoin(&parent->oracle(), schema, "clone_1");
  RequestPairJoin(&parent->oracle(), schema, "clone_2");
  EXPECT_EQ(RequestPairJoin(&parent->oracle(), schema, "clone_3").reuses, 1);
  ASSERT_GT(parent->oracle().cached_bases(), 0);

  const auto clone = parent->CloneContextForWorker();
  EXPECT_EQ(clone->oracle().cached_bases(), 0);
  const Query q = BindSql(kPairSql, "clone_4", schema);
  {
    obs::MetricsRegistry metrics;
    obs::MetricsScope scope(&metrics);
    EXPECT_NE(&clone->oracle().FilteredRows(q, 0),
              &parent->oracle().FilteredRows(q, 0));
    // The parent's request reused its entry; the clone's scanned anew.
    EXPECT_EQ(metrics.Get(obs::Counter::kOracleBaseReuses), 1);
  }
  // The clone keeps no table the parent kept: its first build is scratch.
  const BuildCounts first = RequestPairJoin(&clone->oracle(), schema, "c_1");
  EXPECT_EQ(first.builds, 1);
  EXPECT_EQ(first.reuses, 0);
}

TEST_F(OracleTest, ReleaseDropsBuildTablesButKeepsCards) {
  const auto replica = db_->CloneContextForWorker();
  Oracle& oracle = replica->oracle();
  const catalog::Schema& schema = db_->schema();
  int64_t rows = 0;
  RequestPairJoin(&oracle, schema, "rel_1", &rows);
  RequestPairJoin(&oracle, schema, "rel_2");  // fills the cache
  const int64_t bases = oracle.cached_bases();
  oracle.ReleaseMaterializations();
  EXPECT_EQ(oracle.materialization_bytes(), 0);
  EXPECT_EQ(oracle.cached_bases(), bases);  // filtered rows stay
  // The card is memoized: no join, no build.
  int64_t again = 0;
  const BuildCounts card = RequestPairJoin(&oracle, schema, "rel_1", &again);
  EXPECT_EQ(card.builds + card.reuses, 0);
  EXPECT_EQ(again, rows);
  // The table is gone: the next request builds (a refill), not reuses.
  const BuildCounts refill = RequestPairJoin(&oracle, schema, "rel_3");
  EXPECT_EQ(refill.builds, 1);
  EXPECT_EQ(refill.reuses, 0);
}

TEST_F(OracleTest, ReleaseIntermediatesKeepsBuildTablesAndCards) {
  const auto replica = db_->CloneContextForWorker();
  Oracle& oracle = replica->oracle();
  const catalog::Schema& schema = db_->schema();
  int64_t rows = 0;
  RequestPairJoin(&oracle, schema, "keep_1", &rows);
  const int64_t intermediate = oracle.materialization_bytes();
  RequestPairJoin(&oracle, schema, "keep_2");  // fills the cache
  const int64_t table = oracle.materialization_bytes() - 2 * intermediate;
  ASSERT_GT(intermediate, 0);
  ASSERT_GT(table, 0);
  const int64_t bases = oracle.cached_bases();
  oracle.ReleaseIntermediates();
  EXPECT_EQ(oracle.materialization_bytes(), table);  // the kept table only
  EXPECT_EQ(oracle.cached_bases(), bases);
  int64_t again = 0;
  const BuildCounts card = RequestPairJoin(&oracle, schema, "keep_1", &again);
  EXPECT_EQ(card.builds + card.reuses, 0);
  EXPECT_EQ(again, rows);
  const BuildCounts reuse = RequestPairJoin(&oracle, schema, "keep_3");
  EXPECT_EQ(reuse.builds, 0);
  EXPECT_EQ(reuse.reuses, 1);
  oracle.ReleaseMaterializations();
  EXPECT_EQ(oracle.materialization_bytes(), 0);
}

TEST_F(OracleTest, BudgetEvictsBuildTablesFirstAndKeepsCards) {
  const catalog::Schema& schema = db_->schema();
  // Measure one pair intermediate (M) and the kept table (T) on an
  // unbounded oracle. M is the pair's weighted frontier rows: title drops
  // out of the frontier, but each result row has its own mc row (t.id is
  // title's key), so the pair keeps one 4-byte mc row id per result row
  // and no weights (every row weighs 1), in a vector grown by doubling.
  int64_t intermediate = 0;
  int64_t table = 0;
  {
    Oracle oracle(&db_->context());
    int64_t pair_rows = 0;
    RequestPairJoin(&oracle, schema, "size_1", &pair_rows);
    intermediate = oracle.materialization_bytes();
    const int64_t id_bytes = sizeof(RowId);
    EXPECT_GE(intermediate, pair_rows * id_bytes);
    EXPECT_LE(intermediate, 2 * pair_rows * id_bytes + 16 * id_bytes);
    RequestPairJoin(&oracle, schema, "size_2");
    table = oracle.materialization_bytes() - 2 * intermediate;
  }
  ASSERT_GT(intermediate, 0);
  ASSERT_GT(table, 0);

  // Room for exactly two intermediates and the table: the third
  // intermediate goes over, and the table is what gets evicted.
  const int64_t budget = 2 * intermediate + table;
  Oracle oracle(&db_->context(), budget);
  int64_t rows = 0;
  RequestPairJoin(&oracle, schema, "budget_1", &rows);
  EXPECT_EQ(RequestPairJoin(&oracle, schema, "budget_2").builds, 1);
  EXPECT_EQ(oracle.materialization_bytes(), budget);
  const BuildCounts third = RequestPairJoin(&oracle, schema, "budget_3");
  EXPECT_EQ(third.reuses, 1);  // probed before the eviction
  EXPECT_LE(oracle.materialization_bytes(), budget);
  EXPECT_LE(oracle.materialization_bytes(), 3 * intermediate);
  // Cards survive eviction.
  int64_t again = 0;
  const BuildCounts card = RequestPairJoin(&oracle, schema, "budget_1", &again);
  EXPECT_EQ(card.builds + card.reuses, 0);
  EXPECT_EQ(again, rows);
  // The evicted table is rebuilt, not reused.
  const BuildCounts after = RequestPairJoin(&oracle, schema, "budget_4");
  EXPECT_EQ(after.builds, 1);
  EXPECT_EQ(after.reuses, 0);

  // A budget with no room for a table keeps none: every request builds.
  Oracle tight(&db_->context(), 2 * intermediate);
  for (const char* id : {"tight_1", "tight_2", "tight_3", "tight_4"}) {
    const BuildCounts counts = RequestPairJoin(&tight, schema, id);
    EXPECT_EQ(counts.builds, 1) << id;
    EXPECT_EQ(counts.reuses, 0) << id;
  }
}

/// The batched oracle, or the tuple-at-a-time reference (fuzz::ScalarOracle).
std::unique_ptr<Oracle> MakeOracle(bool batched, const DbContext* ctx) {
  if (batched) return std::make_unique<Oracle>(ctx);
  return std::make_unique<fuzz::ScalarOracle>(ctx);
}

/// Every connected subset of every query through one shared oracle (warm
/// base cache and build tables from the queries before) equals a fresh
/// oracle per query, rows and overflow, for both oracles.
void ExpectSharedOracleMatchesFreshPerQuery(engine::Database* db,
                                            const std::string& workload_name,
                                            bool batched) {
  const std::vector<Query> workload =
      query::LoadWorkload(workload_name, db->schema());
  const std::unique_ptr<Oracle> shared = MakeOracle(batched, &db->context());
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  int64_t checked = 0;
  for (const Query& q : workload) {
    const std::unique_ptr<Oracle> fresh = MakeOracle(batched, &db->context());
    for (AliasMask mask = 1; mask <= q.FullMask(); ++mask) {
      if (!q.IsConnected(mask)) continue;
      const Oracle::CardResult want = fresh->TrueJoinRows(q, mask);
      const Oracle::CardResult got = shared->TrueJoinRows(q, mask);
      ASSERT_EQ(got.rows, want.rows) << q.id << " mask " << mask;
      ASSERT_EQ(got.overflow, want.overflow) << q.id << " mask " << mask;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_GT(metrics.Get(obs::Counter::kOracleBaseReuses), 0);
  if (batched) {
    EXPECT_GT(metrics.Get(obs::Counter::kOracleBuildReuses), 0);
  }
}

/// Parameter: true for the batched oracle, false for the reference.
class SharedOracleSweep : public ::testing::TestWithParam<bool> {};

TEST_P(SharedOracleSweep, JobLiteMatchesFreshOraclePerQuery) {
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Medium().Scaled(0.01);
  options.seed = 42;
  const auto db = engine::Database::CreateImdb(options);
  ExpectSharedOracleMatchesFreshPerQuery(db.get(), "job", GetParam());
}

TEST_P(SharedOracleSweep, TpchLiteMatchesFreshOraclePerQuery) {
  engine::Database::Options options;
  options.seed = 42;
  const auto db = engine::Database::CreateTpch(
      options, datagen::TpchScaleProfile::Small().Scaled(0.5));
  ExpectSharedOracleMatchesFreshPerQuery(db.get(), "tpch", GetParam());
}

INSTANTIATE_TEST_SUITE_P(Engines, SharedOracleSweep, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Vectorized" : "Scalar";
                         });

/// Every connected subset of every query, in ascending mask order, through
/// an oracle whose budget is small enough that weighted intermediates are
/// evicted while their own query is still being swept, gives the rows and
/// overflow flags of an unbounded oracle: eviction decides only which
/// extensions and fallbacks stay available, never an answer.
void ExpectEvictionPathIndependent(engine::Database* db,
                                   const std::string& workload_name) {
  constexpr int64_t kBudgetBytes = 16 * 1024;
  const std::vector<Query> workload =
      query::LoadWorkload(workload_name, db->schema());
  Oracle unbounded(&db->context());
  Oracle bounded(&db->context(), kBudgetBytes);
  int64_t evicted_mid_query = 0;
  for (const Query& q : workload) {
    std::vector<AliasMask> held;
    for (AliasMask mask = 1; mask <= q.FullMask(); ++mask) {
      if (!q.IsConnected(mask)) continue;
      const Oracle::CardResult want = unbounded.TrueJoinRows(q, mask);
      const Oracle::CardResult got = bounded.TrueJoinRows(q, mask);
      ASSERT_EQ(got.rows, want.rows) << q.id << " mask " << mask;
      ASSERT_EQ(got.overflow, want.overflow) << q.id << " mask " << mask;
      if (bounded.HoldsIntermediate(q, mask)) held.push_back(mask);
    }
    for (const AliasMask mask : held) {
      evicted_mid_query += bounded.HoldsIntermediate(q, mask) ? 0 : 1;
    }
  }
  EXPECT_GT(evicted_mid_query, 0) << "the budget never evicted mid-query";
}

TEST(OracleEviction, JobLiteSmallBudgetMatchesUnbounded) {
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Medium().Scaled(0.01);
  options.seed = 42;
  const auto db = engine::Database::CreateImdb(options);
  ExpectEvictionPathIndependent(db.get(), "job");
}

TEST(OracleEviction, TpchLiteSmallBudgetMatchesUnbounded) {
  engine::Database::Options options;
  options.seed = 42;
  const auto db = engine::Database::CreateTpch(
      options, datagen::TpchScaleProfile::Small().Scaled(0.5));
  ExpectEvictionPathIndependent(db.get(), "tpch");
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
