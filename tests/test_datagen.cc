// Tests for the synthetic IMDB generator: determinism, referential
// integrity, skew, injected correlations, and the covariate-shift
// subsampler of Fig. 7.

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "catalog/imdb_schema.h"
#include "catalog/tpch_schema.h"
#include "datagen/imdb_generator.h"
#include "datagen/tpch_generator.h"
#include "digest.h"
#include "storage/table.h"

namespace lqolab::datagen {
namespace {

using catalog::imdb::Table;

class DatagenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    schema_ = new catalog::Schema(catalog::BuildImdbSchema());
    tables_ = new std::vector<std::shared_ptr<storage::Table>>();
    for (auto& t : GenerateImdb(*schema_, ScaleProfile::Small(), 42)) {
      tables_->push_back(std::move(t));
    }
  }
  static void TearDownTestSuite() {
    delete tables_;
    delete schema_;
    tables_ = nullptr;
    schema_ = nullptr;
  }

  const storage::Table& table(catalog::TableId t) {
    return *(*tables_)[static_cast<size_t>(t)];
  }

  static catalog::Schema* schema_;
  static std::vector<std::shared_ptr<storage::Table>>* tables_;
};

catalog::Schema* DatagenTest::schema_ = nullptr;
std::vector<std::shared_ptr<storage::Table>>* DatagenTest::tables_ = nullptr;

TEST_F(DatagenTest, RowCountsMatchProfile) {
  const ScaleProfile profile = ScaleProfile::Small();
  EXPECT_EQ(table(Table::kTitle).row_count(), profile.title);
  EXPECT_EQ(table(Table::kCastInfo).row_count(), profile.cast_info);
  EXPECT_EQ(table(Table::kKindType).row_count(), 7);
  EXPECT_EQ(table(Table::kInfoType).row_count(), 113);
  EXPECT_EQ(table(Table::kCompanyType).row_count(), 4);
  EXPECT_EQ(table(Table::kRoleType).row_count(), 12);
}

TEST_F(DatagenTest, DeterministicForSameSeed) {
  auto again = GenerateImdb(*schema_, ScaleProfile::Small(), 42);
  const auto& a = table(Table::kCastInfo);
  const auto& b = *again[Table::kCastInfo];
  ASSERT_EQ(a.row_count(), b.row_count());
  for (storage::RowId r = 0; r < a.row_count(); r += 97) {
    for (int32_t c = 0; c < a.column_count(); ++c) {
      EXPECT_EQ(a.column(c).at(r), b.column(c).at(r));
    }
  }
}

TEST_F(DatagenTest, DifferentSeedDiffers) {
  auto other = GenerateImdb(*schema_, ScaleProfile::Small(), 43);
  const auto& a = table(Table::kCastInfo);
  const auto& b = *other[Table::kCastInfo];
  int differences = 0;
  for (storage::RowId r = 0; r < std::min<int64_t>(200, a.row_count()); ++r) {
    if (a.column(2).at(r) != b.column(2).at(r)) ++differences;
  }
  EXPECT_GT(differences, 50);
}

TEST_F(DatagenTest, ReferentialIntegrity) {
  for (catalog::TableId t = 0; t < schema_->table_count(); ++t) {
    for (const auto& fk : schema_->table(t).foreign_keys) {
      const storage::Table& referenced =
          table(fk.referenced_table);
      std::unordered_set<storage::Value> ids;
      for (storage::RowId r = 0; r < referenced.row_count(); ++r) {
        ids.insert(referenced.column(0).at(r));
      }
      const storage::Column& fk_col = table(t).column(fk.column);
      for (storage::RowId r = 0; r < table(t).row_count(); ++r) {
        const storage::Value v = fk_col.at(r);
        if (v == storage::kNullValue) continue;
        ASSERT_TRUE(ids.count(v) > 0)
            << schema_->table(t).name << " row " << r << " fk col "
            << fk.column << " dangling value " << v;
      }
    }
  }
}

TEST_F(DatagenTest, MoviePopularityIsSkewed) {
  // The busiest movie in cast_info should have far more credits than the
  // median one.
  std::unordered_map<storage::Value, int64_t> credits;
  const storage::Column& movie = table(Table::kCastInfo).column(2);
  for (storage::RowId r = 0; r < table(Table::kCastInfo).row_count(); ++r) {
    ++credits[movie.at(r)];
  }
  int64_t max_credits = 0;
  for (const auto& [id, count] : credits) {
    max_credits = std::max(max_credits, count);
  }
  const double avg = static_cast<double>(table(Table::kCastInfo).row_count()) /
                     static_cast<double>(credits.size());
  EXPECT_GT(static_cast<double>(max_credits), 4.0 * avg);
}

TEST_F(DatagenTest, GenderRoleCorrelation) {
  // Actresses (role 2) should be predominantly female; actors (role 1)
  // predominantly male — the injected correlation.
  const auto& ci = table(Table::kCastInfo);
  const auto& names = table(Table::kName);
  std::unordered_map<storage::Value, storage::Value> gender_by_id;
  for (storage::RowId r = 0; r < names.row_count(); ++r) {
    gender_by_id[names.column(0).at(r)] = names.column(2).at(r);
  }
  const storage::Value female = names.column(2).LookupString("f");
  int64_t actress_total = 0;
  int64_t actress_female = 0;
  for (storage::RowId r = 0; r < ci.row_count(); ++r) {
    if (ci.column(4).at(r) != 2) continue;  // role_id 2 = actress
    ++actress_total;
    if (gender_by_id[ci.column(1).at(r)] == female) ++actress_female;
  }
  ASSERT_GT(actress_total, 50);
  EXPECT_GT(static_cast<double>(actress_female) /
                static_cast<double>(actress_total),
            0.6);
}

TEST_F(DatagenTest, TitleYearsWithinRange) {
  const auto& title = table(Table::kTitle);
  int64_t nulls = 0;
  for (storage::RowId r = 0; r < title.row_count(); ++r) {
    const storage::Value year = title.column(3).at(r);
    if (year == storage::kNullValue) {
      ++nulls;
      continue;
    }
    ASSERT_GE(year, 1900);
    ASSERT_LE(year, 2024);
  }
  // ~4% null production years.
  EXPECT_GT(nulls, 0);
  EXPECT_LT(static_cast<double>(nulls) / static_cast<double>(title.row_count()),
            0.10);
}

TEST_F(DatagenTest, RatingPoolValuesPresent) {
  // The workload filters on "rating_*" / "votes_*" literals; they must
  // exist in the movie_info_idx dictionary (regression test for the pool
  // naming bug).
  const storage::Column& info = table(Table::kMovieInfoIdx).column(3);
  EXPECT_NE(info.LookupString("rating_5"), storage::kNullValue);
  EXPECT_NE(info.LookupString("votes_3"), storage::kNullValue);
}

TEST_F(DatagenTest, GenrePoolValuesPresent) {
  const storage::Column& info = table(Table::kMovieInfo).column(3);
  for (const char* genre : {"drama", "comedy", "horror", "documentary"}) {
    EXPECT_NE(info.LookupString(genre), storage::kNullValue) << genre;
  }
  EXPECT_NE(info.LookupString("country_0"), storage::kNullValue);
  EXPECT_NE(info.LookupString("lang_0"), storage::kNullValue);
}

TEST(ScaleProfile, ScaledKeepsMinimumRows) {
  const ScaleProfile tiny = ScaleProfile::Medium().Scaled(1e-9);
  EXPECT_GE(tiny.title, 8);
  EXPECT_GE(tiny.cast_info, 8);
}

class SubsampleTest : public DatagenTest {};

TEST_F(SubsampleTest, CascadePreservesIntegrity) {
  auto half = SubsampleTitleCascade(*schema_, *tables_, 0.5, 7);
  // Surviving title ids.
  std::unordered_set<storage::Value> kept;
  const auto& title = *half[Table::kTitle];
  for (storage::RowId r = 0; r < title.row_count(); ++r) {
    kept.insert(title.column(0).at(r));
  }
  // Roughly half the titles survive.
  const double fraction =
      static_cast<double>(title.row_count()) /
      static_cast<double>(table(Table::kTitle).row_count());
  EXPECT_NEAR(fraction, 0.5, 0.06);
  // Every title FK in every table points at a surviving title.
  for (catalog::TableId t = 0; t < schema_->table_count(); ++t) {
    for (const auto& fk : schema_->table(t).foreign_keys) {
      if (fk.referenced_table != Table::kTitle) continue;
      const auto& tab = *half[static_cast<size_t>(t)];
      for (storage::RowId r = 0; r < tab.row_count(); ++r) {
        const storage::Value v = tab.column(fk.column).at(r);
        if (v == storage::kNullValue) continue;
        ASSERT_TRUE(kept.count(v) > 0) << schema_->table(t).name;
      }
    }
  }
}

TEST_F(SubsampleTest, NonMovieTablesUntouched) {
  auto half = SubsampleTitleCascade(*schema_, *tables_, 0.5, 7);
  EXPECT_EQ((*half[Table::kName]).row_count(),
            table(Table::kName).row_count());
  EXPECT_EQ((*half[Table::kKeyword]).row_count(),
            table(Table::kKeyword).row_count());
  EXPECT_EQ((*half[Table::kInfoType]).row_count(), 113);
}

TEST_F(SubsampleTest, MovieFactTablesShrink) {
  auto half = SubsampleTitleCascade(*schema_, *tables_, 0.5, 7);
  for (catalog::TableId t : {Table::kCastInfo, Table::kMovieInfo,
                             Table::kMovieKeyword, Table::kMovieCompanies}) {
    const double fraction =
        static_cast<double>((*half[static_cast<size_t>(t)]).row_count()) /
        static_cast<double>(table(t).row_count());
    EXPECT_GT(fraction, 0.25) << schema_->table(t).name;
    EXPECT_LT(fraction, 0.75) << schema_->table(t).name;
  }
}

TEST_F(SubsampleTest, FullFractionKeepsEverything) {
  auto all = SubsampleTitleCascade(*schema_, *tables_, 1.0, 7);
  for (catalog::TableId t = 0; t < schema_->table_count(); ++t) {
    EXPECT_EQ((*all[static_cast<size_t>(t)]).row_count(),
              table(t).row_count());
  }
}

TEST_F(SubsampleTest, StringsSurviveReencoding) {
  auto half = SubsampleTitleCascade(*schema_, *tables_, 0.5, 7);
  const storage::Column& info = (*half[Table::kMovieInfo]).column(3);
  EXPECT_NE(info.LookupString("drama"), storage::kNullValue);
}

/// FNV-1a over every value (raw bytes) and every dictionary string of
/// every column of `tables`.
uint64_t TablesDigest(
    const std::vector<std::unique_ptr<storage::Table>>& tables) {
  testutil::Digest digest;
  for (const auto& table : tables) {
    for (int32_t c = 0; c < table->column_count(); ++c) {
      const storage::Column& column = table->column(c);
      digest.Add(std::string_view(
          reinterpret_cast<const char*>(column.data()),
          column.values().size() * sizeof(storage::Value)));
      for (storage::Value code = 0; code < column.dictionary_size(); ++code) {
        digest.Add(column.StringAt(code));
      }
    }
  }
  return digest.value();
}

// Bit-for-bit pins of the seed-42 generated data at the test scale and at
// the scale bench/layer_profile builds, so a faster sampler (e.g.
// ZipfTable's guide table) provably draws the same tables.
TEST(DatagenDigest, Imdb) {
  const catalog::Schema schema = catalog::BuildImdbSchema();
  EXPECT_EQ(TablesDigest(GenerateImdb(schema, ScaleProfile::Small(), 42)),
            10437199409422354321ull);
  EXPECT_EQ(TablesDigest(GenerateImdb(schema, ScaleProfile::Medium(), 42)),
            7078012393086258203ull);
}

TEST(DatagenDigest, Tpch) {
  const catalog::Schema schema = catalog::BuildTpchSchema();
  EXPECT_EQ(TablesDigest(GenerateTpch(
                schema, TpchScaleProfile::Small().Scaled(0.5), 42)),
            12851138646500778531ull);
  EXPECT_EQ(TablesDigest(GenerateTpch(
                schema, TpchScaleProfile::Medium().Scaled(4.0), 42)),
            10458454990044755760ull);
}

}  // namespace
}  // namespace lqolab::datagen
