// Tests for ANALYZE statistics and the cardinality estimator.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "catalog/imdb_schema.h"
#include "engine/database.h"
#include "query/sql_workload.h"
#include "stats/cardinality_estimator.h"
#include "stats/column_stats.h"

namespace lqolab::stats {
namespace {

using storage::kNullValue;
using storage::Value;

catalog::TableDef SingleIntColumnDef() {
  catalog::TableDef def;
  def.name = "t";
  def.columns = {{"id", catalog::ColumnType::kInt},
                 {"v", catalog::ColumnType::kInt}};
  return def;
}

TEST(Analyze, ExactDistinctAndNullCounts) {
  const catalog::TableDef def = SingleIntColumnDef();
  storage::Table table(0, def);
  for (Value v : {1, 1, 2, 3, 3, 3, kNullValue, kNullValue}) {
    table.AppendRow({0, v});
  }
  const TableStats stats = Analyze(table);
  const ColumnStats& cs = stats.columns[1];
  EXPECT_EQ(cs.row_count, 8);
  EXPECT_EQ(cs.null_count, 2);
  EXPECT_EQ(cs.n_distinct, 3);
  EXPECT_EQ(cs.min_value, 1);
  EXPECT_EQ(cs.max_value, 3);
  EXPECT_NEAR(cs.NullSelectivity(), 0.25, 1e-12);
}

TEST(Analyze, McvCapturesHeavyHitter) {
  const catalog::TableDef def = SingleIntColumnDef();
  storage::Table table(0, def);
  for (int i = 0; i < 900; ++i) table.AppendRow({0, 7});
  for (int i = 0; i < 100; ++i) table.AppendRow({0, i + 100});
  const TableStats stats = Analyze(table);
  const ColumnStats& cs = stats.columns[1];
  ASSERT_FALSE(cs.mcv_values.empty());
  EXPECT_EQ(cs.mcv_values[0], 7);
  EXPECT_NEAR(cs.mcv_freqs[0], 0.9, 0.01);
  EXPECT_NEAR(cs.EqSelectivity(7), 0.9, 0.01);
}

TEST(Analyze, EqSelectivitySumsToNotNullFraction) {
  const catalog::TableDef def = SingleIntColumnDef();
  storage::Table table(0, def);
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    table.AppendRow({0, static_cast<Value>(rng.Zipf(50, 1.0))});
  }
  const TableStats stats = Analyze(table);
  const ColumnStats& cs = stats.columns[1];
  double total = 0.0;
  for (Value v = 0; v < 50; ++v) total += cs.EqSelectivity(v);
  EXPECT_NEAR(total, 1.0, 0.12);
}

TEST(Analyze, RangeSelectivityFullDomain) {
  const catalog::TableDef def = SingleIntColumnDef();
  storage::Table table(0, def);
  util::Rng rng(6);
  for (int i = 0; i < 3000; ++i) {
    table.AppendRow({0, static_cast<Value>(rng.UniformInt(0, 999))});
  }
  const TableStats stats = Analyze(table);
  const ColumnStats& cs = stats.columns[1];
  EXPECT_NEAR(cs.RangeSelectivity(0, 999), 1.0, 0.02);
  EXPECT_NEAR(cs.RangeSelectivity(0, 499), 0.5, 0.06);
  EXPECT_EQ(cs.RangeSelectivity(2000, 3000), 0.0);
  EXPECT_EQ(cs.RangeSelectivity(10, 5), 0.0);
}

/// Hand-built histograms targeting the interpolation edge cases: negative
/// domains (the old bucket search truncated the -0.5/+0.5 interpolation
/// offsets toward zero), values below bounds.front(), zero-width buckets,
/// and fully degenerate all-equal bounds.
TEST(Analyze, HistogramNegativeDomainInterpolation) {
  ColumnStats cs;
  cs.row_count = 100;
  cs.histogram_bounds = {-10, -5, 0};
  cs.histogram_fraction = 1.0;
  // [-8, -6] spans positions (-8.5, -5.5) of the first 5-wide bucket:
  // (0.9 - 0.3) / 2 buckets = 0.3 of the histogram.
  EXPECT_NEAR(cs.RangeSelectivity(-8, -6), 0.3, 1e-9);
  EXPECT_NEAR(cs.RangeSelectivity(-10, 0), 1.0, 1e-9);
  EXPECT_EQ(cs.RangeSelectivity(-100, -50), 0.0);
  EXPECT_EQ(cs.RangeSelectivity(50, 100), 0.0);
}

TEST(Analyze, HistogramAllEqualBoundsActAsPointMass) {
  ColumnStats cs;
  cs.row_count = 10;
  cs.histogram_bounds = {7, 7, 7};
  cs.histogram_fraction = 1.0;
  EXPECT_EQ(cs.RangeSelectivity(0, 10), 1.0);
  EXPECT_EQ(cs.RangeSelectivity(7, 7), 1.0);
  EXPECT_EQ(cs.RangeSelectivity(8, 10), 0.0);
  EXPECT_EQ(cs.RangeSelectivity(0, 6), 0.0);
}

TEST(Analyze, HistogramZeroWidthBucketsStayInUnitInterval) {
  ColumnStats cs;
  cs.row_count = 10;
  cs.histogram_bounds = {0, 5, 5, 5, 9};  // repeated interior bound
  cs.histogram_fraction = 1.0;
  double previous_width_sel = 0.0;
  for (Value hi = -2; hi <= 11; ++hi) {
    const double sel = cs.RangeSelectivity(-2, hi);
    ASSERT_TRUE(std::isfinite(sel)) << "hi=" << hi;
    ASSERT_GE(sel, 0.0) << "hi=" << hi;
    ASSERT_LE(sel, 1.0) << "hi=" << hi;
    // Growing the range can only grow the selectivity.
    ASSERT_GE(sel, previous_width_sel - 1e-12) << "hi=" << hi;
    previous_width_sel = sel;
  }
  EXPECT_NEAR(cs.RangeSelectivity(-2, 11), 1.0, 1e-9);
}

TEST(Analyze, HistogramBoundsSorted) {
  const catalog::TableDef def = SingleIntColumnDef();
  storage::Table table(0, def);
  util::Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    table.AppendRow({0, static_cast<Value>(rng.Gaussian(0, 1000))});
  }
  const TableStats stats = Analyze(table);
  const ColumnStats& cs = stats.columns[1];
  EXPECT_TRUE(std::is_sorted(cs.histogram_bounds.begin(),
                             cs.histogram_bounds.end()));
  EXPECT_GT(cs.histogram_fraction, 0.5);
}

TEST(Analyze, EqSelectivityOutOfRangeIsZero) {
  const catalog::TableDef def = SingleIntColumnDef();
  storage::Table table(0, def);
  for (int i = 0; i < 100; ++i) table.AppendRow({0, i});
  const TableStats stats = Analyze(table);
  const ColumnStats& cs = stats.columns[1];
  EXPECT_EQ(cs.EqSelectivity(-5), 0.0);
  EXPECT_EQ(cs.EqSelectivity(1000), 0.0);
  EXPECT_EQ(cs.EqSelectivity(kNullValue), 0.0);
}

/// Builds a table whose value distribution is picked by `shape` (uniform,
/// Zipf-skewed, Gaussian, or few-distinct with nulls) — the shapes the
/// generated IMDB columns actually exhibit.
void FillRandomTable(util::Rng* rng, int shape, storage::Table* table) {
  const int64_t rows = rng->UniformInt(200, 2000);
  for (int64_t i = 0; i < rows; ++i) {
    Value v = 0;
    switch (shape % 4) {
      case 0: v = static_cast<Value>(rng->UniformInt(-50, 50)); break;
      case 1: v = static_cast<Value>(rng->Zipf(100, 1.2)); break;
      case 2: v = static_cast<Value>(rng->Gaussian(0.0, 300.0)); break;
      default:
        v = rng->Bernoulli(0.1) ? kNullValue
                                : static_cast<Value>(rng->UniformInt(0, 5));
        break;
    }
    table->AppendRow({0, v});
  }
}

TEST(SelectivityProperty, RandomPredicatesStayWithinUnitInterval) {
  util::Rng rng(123);
  for (int trial = 0; trial < 16; ++trial) {
    storage::Table table(0, SingleIntColumnDef());
    FillRandomTable(&rng, trial, &table);
    const ColumnStats cs = Analyze(table).columns[1];
    for (int p = 0; p < 64; ++p) {
      const Value a = static_cast<Value>(rng.UniformInt(-2000, 2000));
      const Value b = static_cast<Value>(rng.UniformInt(-2000, 2000));
      std::vector<Value> in_list = {a};
      if (b != a) in_list.push_back(b);
      for (const double sel :
           {cs.EqSelectivity(a), cs.RangeSelectivity(std::min(a, b),
                                                     std::max(a, b)),
            cs.InSelectivity(in_list), cs.NullSelectivity(),
            cs.NotNullSelectivity()}) {
        EXPECT_GE(sel, 0.0) << "trial " << trial << " a=" << a << " b=" << b;
        EXPECT_LE(sel, 1.0) << "trial " << trial << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(SelectivityProperty, RangeSelectivityMonotoneInWidth) {
  util::Rng rng(321);
  for (int trial = 0; trial < 12; ++trial) {
    storage::Table table(0, SingleIntColumnDef());
    FillRandomTable(&rng, trial, &table);
    const ColumnStats cs = Analyze(table).columns[1];
    // Widening the interval on the right can only pick up more rows.
    const Value lo = static_cast<Value>(rng.UniformInt(-600, 100));
    double previous = 0.0;
    for (Value hi = lo; hi < lo + 1200; hi += rng.UniformInt(1, 30)) {
      const double sel = cs.RangeSelectivity(lo, hi);
      EXPECT_GE(sel, previous - 1e-12) << "trial " << trial << " [" << lo
                                       << ", " << hi << "]";
      previous = sel;
    }
    // And any nested interval estimates at most what its cover does.
    for (int p = 0; p < 32; ++p) {
      const Value outer_lo = static_cast<Value>(rng.UniformInt(-800, 0));
      const Value outer_hi =
          outer_lo + static_cast<Value>(rng.UniformInt(0, 1200));
      const Value inner_lo =
          outer_lo + static_cast<Value>(
                         rng.UniformInt(0, outer_hi - outer_lo));
      const Value inner_hi =
          inner_lo + static_cast<Value>(
                         rng.UniformInt(0, outer_hi - inner_lo));
      EXPECT_LE(cs.RangeSelectivity(inner_lo, inner_hi),
                cs.RangeSelectivity(outer_lo, outer_hi) + 1e-12)
          << "trial " << trial << " [" << inner_lo << ", " << inner_hi
          << "] in [" << outer_lo << ", " << outer_hi << "]";
    }
  }
}

/// Estimator tests run against a small generated database.
class EstimatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine::Database::Options options;
    options.profile = datagen::ScaleProfile::Small();
    options.seed = 42;
    db_ = engine::Database::CreateImdb(options).release();
    workload_ = new std::vector<query::Query>(
        query::LoadWorkload("job", db_->schema()));
  }
  static void TearDownTestSuite() {
    delete workload_;
    delete db_;
    workload_ = nullptr;
    db_ = nullptr;
  }
  static engine::Database* db_;
  static std::vector<query::Query>* workload_;
};

engine::Database* EstimatorTest::db_ = nullptr;
std::vector<query::Query>* EstimatorTest::workload_ = nullptr;

TEST_F(EstimatorTest, BaseRowsCloseToTruthForSimpleFilters) {
  // Single equality filters on well-covered columns should estimate within
  // a small factor (full-table ANALYZE, exact MCVs).
  const auto& estimator = db_->planner().estimator();
  int checked = 0;
  for (const auto& q : *workload_) {
    for (query::AliasId a = 0; a < q.relation_count(); ++a) {
      if (q.PredicatesFor(a).size() != 1) continue;
      const double est = estimator.EstimateBaseRows(q, a);
      const double truth =
          static_cast<double>(db_->oracle().TrueBaseRows(q, a));
      if (truth < 5) continue;  // tiny truths are dominated by clamping
      EXPECT_LT(est / truth, 4.0) << q.id << " alias " << a;
      EXPECT_GT(est / truth, 0.25) << q.id << " alias " << a;
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST_F(EstimatorTest, JoinEstimateAtLeastOne) {
  const auto& estimator = db_->planner().estimator();
  for (const auto& q : *workload_) {
    EXPECT_GE(estimator.EstimateJoinRows(q, q.FullMask()), 1.0) << q.id;
  }
}

TEST_F(EstimatorTest, PkFkJoinEstimateReasonable) {
  // t JOIN mk on movie_id without filters: the estimate should be within a
  // small factor of |mk| (every mk row has a movie).
  const query::Query q = query::LoadWorkloadQuery("job", "3a", db_->schema());
  // Find the aliases of title and movie_keyword.
  query::AliasId t = -1;
  query::AliasId mk = -1;
  for (query::AliasId a = 0; a < q.relation_count(); ++a) {
    if (q.relations[static_cast<size_t>(a)].table == catalog::imdb::kTitle) t = a;
    if (q.relations[static_cast<size_t>(a)].table ==
        catalog::imdb::kMovieKeyword) {
      mk = a;
    }
  }
  ASSERT_GE(t, 0);
  ASSERT_GE(mk, 0);
  query::Query bare = q;
  bare.predicates.clear();  // unfiltered join
  const auto& estimator = db_->planner().estimator();
  const double est = estimator.EstimateJoinRows(
      bare, query::MaskOf(t) | query::MaskOf(mk));
  const double truth = static_cast<double>(
      db_->context().table(catalog::imdb::kMovieKeyword).row_count());
  EXPECT_GT(est / truth, 0.3);
  EXPECT_LT(est / truth, 3.0);
}

TEST_F(EstimatorTest, CorrelatedFiltersUnderestimated) {
  // Genre correlates with kind/era in the generated data; an
  // independence-based estimator must misestimate somewhere in the
  // workload by at least an order of magnitude (that gap is the paper's
  // raison d'etre for learned optimizers).
  const auto& estimator = db_->planner().estimator();
  double worst_ratio = 1.0;
  for (const auto& q : *workload_) {
    const auto truth = db_->oracle().TrueJoinRows(q, q.FullMask());
    if (truth.overflow || truth.rows < 10) continue;
    const double est = estimator.EstimateJoinRows(q, q.FullMask());
    const double ratio =
        std::max(est / static_cast<double>(truth.rows),
                 static_cast<double>(truth.rows) / est);
    worst_ratio = std::max(worst_ratio, ratio);
  }
  EXPECT_GT(worst_ratio, 10.0);
}

TEST_F(EstimatorTest, EdgeSelectivityWithinUnit) {
  const auto& estimator = db_->planner().estimator();
  for (const auto& q : *workload_) {
    for (const auto& edge : q.edges) {
      const double sel = estimator.EdgeSelectivity(q, edge);
      EXPECT_GT(sel, 0.0) << q.id;
      EXPECT_LE(sel, 1.0) << q.id;
    }
  }
}

/// A poisoned join_selectivity_scale (0, or NaN from a bad sweep config)
/// must not leak out of EdgeSelectivity: 0 used to zero the stepwise
/// selectivity product and freeze every deeper join estimate at the clamp,
/// and NaN poisoned every cost downstream.
TEST_F(EstimatorTest, EdgeSelectivitySurvivesPoisonedScale) {
  const engine::DbConfig saved = db_->config();
  const auto& estimator = db_->planner().estimator();
  const query::Query& q = (*workload_)[0];
  ASSERT_FALSE(q.edges.empty());

  engine::DbConfig poisoned = saved;
  poisoned.join_selectivity_scale = 0.0;
  db_->SetConfig(poisoned);
  for (const auto& edge : q.edges) {
    const double sel = estimator.EdgeSelectivity(q, edge);
    EXPECT_GT(sel, 0.0);
    EXPECT_LE(sel, 1.0);
  }
  EXPECT_GE(estimator.EstimateJoinRows(q, q.FullMask()), 1.0);

  poisoned.join_selectivity_scale = std::nan("");
  db_->SetConfig(poisoned);
  for (const auto& edge : q.edges) {
    const double sel = estimator.EdgeSelectivity(q, edge);
    EXPECT_TRUE(std::isfinite(sel));
    EXPECT_GT(sel, 0.0);
    EXPECT_LE(sel, 1.0);
  }
  const double rows = estimator.EstimateJoinRows(q, q.FullMask());
  EXPECT_TRUE(std::isfinite(rows));
  EXPECT_GE(rows, 1.0);
  db_->SetConfig(saved);
}

/// The per-edge >= 1 row clamp: a chain of extremely selective joins must
/// never freeze at exactly the clamp while edges remain, and the estimate
/// must stay finite and positive however deep the chain gets.
TEST_F(EstimatorTest, DeepChainEstimatesStayPositiveUnderTinyScale) {
  const engine::DbConfig saved = db_->config();
  engine::DbConfig tiny = saved;
  tiny.join_selectivity_scale = 1e-30;
  db_->SetConfig(tiny);
  const auto& estimator = db_->planner().estimator();
  for (const auto& q : *workload_) {
    const double rows = estimator.EstimateJoinRows(q, q.FullMask());
    EXPECT_TRUE(std::isfinite(rows)) << q.id;
    EXPECT_GE(rows, 1.0) << q.id;
  }
  db_->SetConfig(saved);
}

/// Property sweep over all 113 queries: subset estimates are monotone-ish
/// under adding a relation with no filter... (not strictly true); instead we
/// check estimates are finite and positive for every connected prefix.
class EstimatePrefixProperty : public ::testing::TestWithParam<int> {};

TEST_P(EstimatePrefixProperty, FiniteOnAllPrefixes) {
  static engine::Database* db = [] {
    engine::Database::Options options;
    options.profile = datagen::ScaleProfile::Small();
    options.seed = 42;
    return engine::Database::CreateImdb(options).release();
  }();
  const auto workload = query::LoadWorkload("job", db->schema());
  const auto& q = workload[static_cast<size_t>(GetParam())];
  const auto& estimator = db->planner().estimator();
  query::AliasMask mask = 0;
  for (query::AliasId a = 0; a < q.relation_count(); ++a) {
    // Grow a connected prefix.
    query::AliasId next = -1;
    for (query::AliasId c = 0; c < q.relation_count(); ++c) {
      if (mask & query::MaskOf(c)) continue;
      if (mask == 0 || (q.AdjacencyMask(c) & mask)) {
        next = c;
        break;
      }
    }
    ASSERT_GE(next, 0);
    mask |= query::MaskOf(next);
    const double est = estimator.EstimateJoinRows(q, mask);
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_GE(est, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, EstimatePrefixProperty,
                         ::testing::Range(0, 113, 7));

}  // namespace
}  // namespace lqolab::stats
