// Unit and property tests for util: RNG, statistics, formatting.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/statistics.h"
#include "util/table_printer.h"
#include "util/virtual_clock.h"

namespace lqolab::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 12);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  std::vector<double> samples(20000);
  for (auto& s : samples) s = rng.Gaussian();
  EXPECT_NEAR(Mean(samples), 0.0, 0.03);
  EXPECT_NEAR(StdDev(samples), 1.0, 0.03);
}

TEST(Rng, ZipfSkewsTowardHead) {
  Rng rng(17);
  ZipfTable table(100, 1.0);
  std::vector<int64_t> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[static_cast<size_t>(table.Sample(&rng))];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(Rng, ZipfZeroExponentIsUniform) {
  Rng rng(19);
  std::vector<int64_t> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[static_cast<size_t>(rng.Zipf(10, 0.0))];
  const auto [min_it, max_it] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LT(static_cast<double>(*max_it) / static_cast<double>(*min_it), 1.3);
}

/// Mismatches between ZipfTable::RankOf and std::lower_bound over the
/// table's CDF (the last rank when past the end) on each of `us`; `first`
/// receives the first mismatching u.
int64_t LowerBoundMismatches(const ZipfTable& table,
                             const std::vector<double>& cdf,
                             const std::vector<double>& us, double* first) {
  int64_t mismatches = 0;
  for (const double u : us) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const int64_t expected = it == cdf.end()
                                 ? static_cast<int64_t>(cdf.size()) - 1
                                 : static_cast<int64_t>(it - cdf.begin());
    if (table.RankOf(u) != expected && mismatches++ == 0) *first = u;
  }
  return mismatches;
}

TEST(ZipfTableTest, GuideMatchesLowerBound) {
  const std::pair<int64_t, double> domains[] = {
      {1, 1.0},    {2, 0.0},        {30, 1.0},       {50, 1.0},
      {1000, 0.5}, {1000000, 0.0},  {1000000, 0.9}};
  for (const auto& [n, s] : domains) {
    SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
    const ZipfTable table(n, s);
    ASSERT_EQ(table.domain_size(), n);
    std::vector<double> cdf(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) cdf[static_cast<size_t>(r)] = table.cdf(r);

    // Hand-picked u: 0, every CDF value and its neighbours, every guide
    // slot boundary j / n and its neighbours, and the largest doubles
    // below 1.
    std::vector<double> us = {0.0, 0x1.0p-53};
    for (const double c : cdf) {
      us.push_back(c);
      us.push_back(std::nextafter(c, 0.0));
      us.push_back(std::nextafter(c, 2.0));
    }
    for (int64_t j = 0; j < n; ++j) {
      const double boundary = static_cast<double>(j) / static_cast<double>(n);
      us.push_back(boundary);
      us.push_back(std::nextafter(boundary, 0.0));
      us.push_back(std::nextafter(boundary, 2.0));
    }
    for (int k = 1; k <= 64; ++k) us.push_back(1.0 - k * 0x1.0p-53);
    double first = 0.0;
    EXPECT_EQ(LowerBoundMismatches(table, cdf, us, &first), 0)
        << "first mismatch at u=" << first;

    // Random draws: Sample consumes one Uniform() and maps it by RankOf.
    us.clear();
    Rng rng(n * 31 + 7);
    Rng twin = rng;
    for (int i = 0; i < 1000000; ++i) {
      const double u = twin.Uniform();
      us.push_back(u);
      if (table.Sample(&rng) != table.RankOf(u)) {
        ADD_FAILURE() << "Sample disagrees with RankOf at draw " << i;
        break;
      }
    }
    EXPECT_EQ(LowerBoundMismatches(table, cdf, us, &first), 0)
        << "first mismatch at u=" << first;
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(values, shuffled);
}

TEST(Rng, ForkGivesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(Statistics, MeanVarianceKnownValues) {
  const std::vector<double> values = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(values), 5.0);
  EXPECT_NEAR(Variance(values), 32.0 / 7.0, 1e-12);
}

TEST(Statistics, MeanOfEmptyIsZero) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({}), 0.0);
  EXPECT_EQ(Variance({1.0}), 0.0);
}

TEST(Statistics, PercentileInterpolates) {
  const std::vector<double> values = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(values, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(values, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(values, 50), 25);
}

TEST(Statistics, ConfidenceIntervalShrinksWithN) {
  std::vector<double> small;
  std::vector<double> large;
  Rng rng(37);
  for (int i = 0; i < 10; ++i) small.push_back(rng.Gaussian());
  for (int i = 0; i < 1000; ++i) large.push_back(rng.Gaussian());
  EXPECT_GT(ConfidenceInterval95(small), ConfidenceInterval95(large));
}

TEST(Statistics, MannWhitneyIdenticalSamplesNotSignificant) {
  const std::vector<double> a = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const TestResult result = MannWhitneyU(a, a);
  EXPECT_FALSE(result.significant);
  EXPECT_GT(result.p_value, 0.9);
}

TEST(Statistics, MannWhitneyDetectsShift) {
  std::vector<double> a;
  std::vector<double> b;
  Rng rng(41);
  for (int i = 0; i < 40; ++i) {
    a.push_back(rng.Gaussian(0.0, 1.0));
    b.push_back(rng.Gaussian(2.0, 1.0));
  }
  const TestResult result = MannWhitneyU(a, b);
  EXPECT_TRUE(result.significant);
  EXPECT_LT(result.p_value, 0.001);
}

TEST(Statistics, MannWhitneyOneSidedDirection) {
  std::vector<double> low;
  std::vector<double> high;
  Rng rng(43);
  for (int i = 0; i < 50; ++i) {
    low.push_back(rng.Gaussian(0.0, 1.0));
    high.push_back(rng.Gaussian(1.5, 1.0));
  }
  EXPECT_TRUE(MannWhitneyULess(low, high).significant);
  EXPECT_FALSE(MannWhitneyULess(high, low).significant);
}

TEST(Statistics, MannWhitneyHandlesTies) {
  const std::vector<double> a = {1, 1, 1, 2, 2, 3};
  const std::vector<double> b = {1, 2, 2, 2, 3, 3};
  const TestResult result = MannWhitneyU(a, b);
  EXPECT_GE(result.p_value, 0.0);
  EXPECT_LE(result.p_value, 1.0);
}

TEST(Statistics, MannWhitneyEmptySampleDegenerate) {
  const TestResult result = MannWhitneyU({}, {1.0, 2.0});
  EXPECT_FALSE(result.significant);
  EXPECT_EQ(result.p_value, 1.0);
}

TEST(Statistics, WelchDetectsDifference) {
  std::vector<double> a;
  std::vector<double> b;
  Rng rng(47);
  for (int i = 0; i < 30; ++i) {
    a.push_back(rng.Gaussian(10.0, 1.0));
    b.push_back(rng.Gaussian(12.0, 2.0));
  }
  EXPECT_TRUE(WelchTTest(a, b).significant);
  EXPECT_FALSE(WelchTTest(a, a).significant);
}

TEST(Statistics, OlsRecoversPerfectLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 7.0);
  }
  const OlsFit fit = OrdinaryLeastSquares(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Statistics, RSquaredNegativeForBadPredictor) {
  // A predictor worse than the mean yields negative R^2 — the effect the
  // paper reports in Fig. 2 (R^2 = -0.11 for joins -> runtime).
  const std::vector<double> observed = {1, 2, 3, 4};
  const std::vector<double> predicted = {4, 3, 2, 1};
  EXPECT_LT(RSquared(observed, predicted), 0.0);
}

TEST(Statistics, LeaveOneOutR2OnNoise) {
  Rng rng(53);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 60; ++i) {
    xs.push_back(rng.Uniform());
    ys.push_back(rng.Uniform());  // unrelated
  }
  // Cross-validated R^2 of an unrelated regressor is near or below zero.
  EXPECT_LT(LeaveOneOutR2(xs, ys), 0.15);
}

TEST(Statistics, NormalCdfKnownPoints) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

TEST(VirtualClock, AccumulatesCharges) {
  VirtualClock clock;
  clock.Charge(100);
  clock.Charge(50);
  EXPECT_EQ(clock.now(), 150);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"a", "long_header"});
  table.AddRow({"x", "1"});
  table.AddRow({"yyyy", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("yyyy"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Format, Durations) {
  EXPECT_EQ(FormatDuration(500), "500 ns");
  EXPECT_EQ(FormatDuration(2'500), "2.5 us");
  EXPECT_EQ(FormatDuration(3'500'000), "3.5 ms");
  EXPECT_EQ(FormatDuration(2'340'000'000), "2.34 s");
  EXPECT_EQ(FormatDuration(600ll * 1'000'000'000), "10.0 min");
  EXPECT_EQ(FormatDuration(7'200ll * 1'000'000'000), "2.0 h");
}

TEST(Format, FactorAndDouble) {
  EXPECT_EQ(FormatFactor(5.53), "5.5x");
  EXPECT_EQ(FormatDouble(3.14159, 3), "3.142");
}

/// Property sweep: Mann-Whitney U p-values stay in [0, 1] and the test is
/// symmetric under swapping samples, across sample-size combinations.
class MannWhitneyProperty : public ::testing::TestWithParam<int> {};

TEST_P(MannWhitneyProperty, SymmetricAndBounded) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 997 + 1);
  const int n_a = 3 + GetParam() % 40;
  const int n_b = 3 + (GetParam() * 7) % 40;
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < n_a; ++i) a.push_back(rng.Gaussian());
  for (int i = 0; i < n_b; ++i) b.push_back(rng.Gaussian(0.5, 1.5));
  const TestResult ab = MannWhitneyU(a, b);
  const TestResult ba = MannWhitneyU(b, a);
  EXPECT_GE(ab.p_value, 0.0);
  EXPECT_LE(ab.p_value, 1.0);
  EXPECT_NEAR(ab.p_value, ba.p_value, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MannWhitneyProperty, ::testing::Range(0, 25));

/// Property sweep: percentiles are monotone in p for random samples.
class PercentileProperty : public ::testing::TestWithParam<int> {};

TEST_P(PercentileProperty, MonotoneInP) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1234);
  std::vector<double> values(1 + GetParam() * 3);
  for (auto& v : values) v = rng.Gaussian(0, 10);
  double previous = Percentile(values, 0);
  for (double p = 5; p <= 100; p += 5) {
    const double current = Percentile(values, p);
    EXPECT_GE(current, previous - 1e-12);
    previous = current;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PercentileProperty, ::testing::Range(1, 20));

}  // namespace
}  // namespace lqolab::util
