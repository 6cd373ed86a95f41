#include "datagen/imdb_generator.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "util/check.h"
#include "util/rng.h"

namespace lqolab::datagen {

namespace {

using catalog::ColumnType;
using catalog::Schema;
using catalog::TableId;
using catalog::imdb::Table;
using storage::kNullValue;
using storage::Value;
using util::Rng;
using util::ZipfTable;

std::vector<std::string> Pool(const std::string& prefix, int64_t n) {
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(prefix + "_" + std::to_string(i));
  }
  return out;
}

/// Picks an index in [0, weights.size()) proportional to `weights`.
size_t WeightedPick(Rng* rng, const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double u = rng->Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return i;
  }
  return weights.size() - 1;
}

/// Deterministic generator for the full database. Keeps cross-table context
/// (per-title kind/year, per-person gender, per-company country, popularity
/// permutations) so that fact tables can be generated with realistic
/// correlations.
class ImdbGenerator {
 public:
  ImdbGenerator(const Schema& schema, const ScaleProfile& profile,
                uint64_t seed)
      : schema_(schema), profile_(profile), rng_(seed) {
    tables_.reserve(static_cast<size_t>(schema.table_count()));
    for (TableId t = 0; t < schema.table_count(); ++t) {
      tables_.push_back(std::make_unique<storage::Table>(t, schema.table(t)));
    }
  }

  std::vector<std::unique_ptr<storage::Table>> Generate() {
    GenerateDimensions();
    GenerateKeyword();
    GenerateCompanyName();
    GenerateName();
    GenerateCharName();
    GenerateTitle();
    GenerateAkaName();
    GenerateAkaTitle();
    GenerateCastInfo();
    GenerateCompleteCast();
    GenerateMovieCompanies();
    GenerateMovieInfo();
    GenerateMovieInfoIdx();
    GenerateMovieKeyword();
    GenerateMovieLink();
    GeneratePersonInfo();
    return std::move(tables_);
  }

 private:
  storage::Table& table(TableId id) { return *tables_[static_cast<size_t>(id)]; }

  /// Interns `text` into column `col` of `t` and returns the code.
  Value Str(TableId t, catalog::ColumnId col, const std::string& text) {
    return table(t).column(col).InternString(text);
  }

  /// Fills a small dimension table with the given values.
  void FillDimension(TableId t, const std::vector<std::string>& values) {
    for (size_t i = 0; i < values.size(); ++i) {
      table(t).AppendRow(
          {static_cast<Value>(i + 1), Str(t, 1, values[i])});
    }
  }

  /// A shuffled identity permutation: popularity rank -> row index.
  std::vector<int32_t> PopularityPermutation(int64_t n, Rng* rng) {
    std::vector<int32_t> perm(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    rng->Shuffle(&perm);
    return perm;
  }

  void GenerateDimensions();
  void GenerateKeyword();
  void GenerateCompanyName();
  void GenerateName();
  void GenerateCharName();
  void GenerateTitle();
  void GenerateAkaName();
  void GenerateAkaTitle();
  void GenerateCastInfo();
  void GenerateCompleteCast();
  void GenerateMovieCompanies();
  void GenerateMovieInfo();
  void GenerateMovieInfoIdx();
  void GenerateMovieKeyword();
  void GenerateMovieLink();
  void GeneratePersonInfo();

  const Schema& schema_;
  ScaleProfile profile_;
  Rng rng_;
  std::vector<std::unique_ptr<storage::Table>> tables_;

  // Cross-table generation context.
  std::vector<int32_t> title_kind_;      // per title row, 1-based kind id
  std::vector<int32_t> title_year_;      // per title row
  std::vector<int32_t> name_gender_;     // per name row: 0=m, 1=f, 2=null
  std::vector<int32_t> company_country_; // per company row, country pool idx
  std::vector<int32_t> movie_pop_;       // popularity rank -> title row
  std::vector<int32_t> person_pop_;      // popularity rank -> name row
  std::vector<int32_t> movie_pop_rank_;  // title row -> popularity rank
};

void ImdbGenerator::GenerateDimensions() {
  FillDimension(Table::kKindType,
                {"movie", "episode", "tv series", "tv movie", "video movie",
                 "tv mini series", "video game"});
  FillDimension(Table::kCompanyType,
                {"production companies", "distributors",
                 "special effects companies", "miscellaneous companies"});
  FillDimension(Table::kLinkType,
                {"follows", "followed by", "remake of", "remade as",
                 "references", "referenced in", "spoofs", "spoofed in",
                 "features", "featured in", "spin off from", "spin off",
                 "version of", "similar to", "edited into", "edited from",
                 "alternate language version of", "unknown link"});
  FillDimension(Table::kRoleType,
                {"actor", "actress", "producer", "writer", "cinematographer",
                 "composer", "costume designer", "director", "editor",
                 "miscellaneous crew", "production designer", "guest"});
  FillDimension(Table::kCompCastType,
                {"cast", "crew", "complete", "complete+verified"});

  // info_type has 113 rows like real IMDB; well-known ids get real names.
  std::vector<std::string> infos;
  infos.reserve(113);
  for (int i = 1; i <= 113; ++i) infos.push_back("info_type_" + std::to_string(i));
  infos[info_types::kGenre - 1] = "genres";
  infos[info_types::kCountry - 1] = "countries";
  infos[info_types::kLanguage - 1] = "languages";
  infos[info_types::kRuntime - 1] = "runtimes";
  infos[info_types::kReleaseDates - 1] = "release dates";
  infos[info_types::kBirthDate - 1] = "birth date";
  infos[info_types::kHeight - 1] = "height";
  infos[info_types::kBiography - 1] = "mini biography";
  infos[info_types::kRating - 1] = "rating";
  infos[info_types::kVotes - 1] = "votes";
  infos[info_types::kTop250Rank - 1] = "top 250 rank";
  FillDimension(Table::kInfoType, infos);
}

void ImdbGenerator::GenerateKeyword() {
  Rng rng = rng_.Fork();
  const auto codes = Pool("pc", 200);
  ZipfTable code_zipf(200, 1.1);
  for (int64_t i = 0; i < profile_.keyword; ++i) {
    table(Table::kKeyword)
        .AppendRow({static_cast<Value>(i + 1),
                    Str(Table::kKeyword, 1, "kw_" + std::to_string(i)),
                    Str(Table::kKeyword, 2, codes[static_cast<size_t>(
                                                code_zipf.Sample(&rng))])});
  }
}

void ImdbGenerator::GenerateCompanyName() {
  Rng rng = rng_.Fork();
  std::vector<std::string> countries = {
      "[us]", "[gb]", "[de]", "[fr]", "[jp]", "[it]", "[ca]", "[es]", "[in]",
      "[au]", "[se]", "[dk]", "[nl]", "[br]", "[mx]", "[ru]", "[cn]", "[kr]",
      "[ar]", "[be]", "[fi]", "[no]", "[pl]", "[at]", "[ch]", "[ie]", "[hk]",
      "[cz]", "[hu]", "[pt]"};
  ZipfTable country_zipf(static_cast<int64_t>(countries.size()), 1.2);
  company_country_.resize(static_cast<size_t>(profile_.company_name));
  for (int64_t i = 0; i < profile_.company_name; ++i) {
    const int32_t country =
        static_cast<int32_t>(country_zipf.Sample(&rng));
    company_country_[static_cast<size_t>(i)] = country;
    table(Table::kCompanyName)
        .AppendRow({static_cast<Value>(i + 1),
                    Str(Table::kCompanyName, 1, "co_" + std::to_string(i)),
                    Str(Table::kCompanyName, 2,
                        countries[static_cast<size_t>(country)])});
  }
}

void ImdbGenerator::GenerateName() {
  Rng rng = rng_.Fork();
  const auto pcodes = Pool("np", 400);
  ZipfTable pcode_zipf(400, 1.0);
  name_gender_.resize(static_cast<size_t>(profile_.name));
  for (int64_t i = 0; i < profile_.name; ++i) {
    const double u = rng.Uniform();
    const int32_t gender = u < 0.55 ? 0 : (u < 0.90 ? 1 : 2);
    name_gender_[static_cast<size_t>(i)] = gender;
    const Value gender_code =
        gender == 2 ? kNullValue
                    : Str(Table::kName, 2, gender == 0 ? "m" : "f");
    table(Table::kName)
        .AppendRow({static_cast<Value>(i + 1),
                    Str(Table::kName, 1, "person_" + std::to_string(i)),
                    gender_code,
                    Str(Table::kName, 3, pcodes[static_cast<size_t>(
                                             pcode_zipf.Sample(&rng))])});
  }
  person_pop_ = PopularityPermutation(profile_.name, &rng);
}

void ImdbGenerator::GenerateCharName() {
  for (int64_t i = 0; i < profile_.char_name; ++i) {
    table(Table::kCharName)
        .AppendRow({static_cast<Value>(i + 1),
                    Str(Table::kCharName, 1, "char_" + std::to_string(i))});
  }
}

void ImdbGenerator::GenerateTitle() {
  Rng rng = rng_.Fork();
  // kind weights: movie, episode, tv series, tv movie, video movie,
  // tv mini series, video game.
  const std::vector<double> kind_weights = {45, 25, 10, 8, 6, 3, 3};
  const auto pcodes = Pool("tp", 300);
  ZipfTable pcode_zipf(300, 1.0);
  ZipfTable year_zipf(125, 0.6);  // rank 0 -> most recent year
  ZipfTable season_zipf(30, 1.0);
  title_kind_.resize(static_cast<size_t>(profile_.title));
  title_year_.resize(static_cast<size_t>(profile_.title));
  for (int64_t i = 0; i < profile_.title; ++i) {
    const int32_t kind = static_cast<int32_t>(WeightedPick(&rng, kind_weights)) + 1;
    int32_t min_year = 1900;
    if (kind == 7) min_year = 1980;       // video games
    else if (kind == 2) min_year = 1950;  // episodes
    int32_t year =
        2024 - static_cast<int32_t>(year_zipf.Sample(&rng));
    year = std::max(year, min_year);
    // ~4% of titles have NULL production_year (like real IMDB).
    const bool year_null = rng.Uniform() < 0.04;
    title_kind_[static_cast<size_t>(i)] = kind;
    title_year_[static_cast<size_t>(i)] = year_null ? 0 : year;
    Value season = kNullValue;
    Value episode = kNullValue;
    if (kind == 2) {
      season = static_cast<Value>(season_zipf.Sample(&rng) + 1);
      episode = static_cast<Value>(rng.UniformInt(1, 24));
    }
    table(Table::kTitle)
        .AppendRow({static_cast<Value>(i + 1),
                    Str(Table::kTitle, 1, "t_" + std::to_string(i)),
                    static_cast<Value>(kind),
                    year_null ? kNullValue : static_cast<Value>(year), season,
                    episode,
                    Str(Table::kTitle, 6, pcodes[static_cast<size_t>(
                                              pcode_zipf.Sample(&rng))])});
  }
  // Popularity correlates with recency: sort rows by (year desc + noise).
  movie_pop_.resize(static_cast<size_t>(profile_.title));
  for (int64_t i = 0; i < profile_.title; ++i) {
    movie_pop_[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  }
  std::vector<double> pop_score(static_cast<size_t>(profile_.title));
  for (int64_t i = 0; i < profile_.title; ++i) {
    pop_score[static_cast<size_t>(i)] =
        static_cast<double>(title_year_[static_cast<size_t>(i)]) +
        rng.Gaussian(0.0, 25.0);
  }
  std::sort(movie_pop_.begin(), movie_pop_.end(),
            [&](int32_t a, int32_t b) {
              return pop_score[static_cast<size_t>(a)] >
                     pop_score[static_cast<size_t>(b)];
            });
  movie_pop_rank_.resize(static_cast<size_t>(profile_.title));
  for (size_t rank = 0; rank < movie_pop_.size(); ++rank) {
    movie_pop_rank_[static_cast<size_t>(movie_pop_[rank])] =
        static_cast<int32_t>(rank);
  }
}

void ImdbGenerator::GenerateAkaName() {
  Rng rng = rng_.Fork();
  ZipfTable person_zipf(profile_.name, 0.4);
  for (int64_t i = 0; i < profile_.aka_name; ++i) {
    const int32_t person =
        person_pop_[static_cast<size_t>(person_zipf.Sample(&rng))];
    table(Table::kAkaName)
        .AppendRow({static_cast<Value>(i + 1), static_cast<Value>(person + 1),
                    Str(Table::kAkaName, 2, "aka_" + std::to_string(i))});
  }
}

void ImdbGenerator::GenerateAkaTitle() {
  Rng rng = rng_.Fork();
  ZipfTable movie_zipf(profile_.title, 0.35);
  for (int64_t i = 0; i < profile_.aka_title; ++i) {
    const int32_t movie =
        movie_pop_[static_cast<size_t>(movie_zipf.Sample(&rng))];
    // 90% of alternate titles keep the original kind.
    const Value kind =
        rng.Uniform() < 0.9
            ? static_cast<Value>(title_kind_[static_cast<size_t>(movie)])
            : static_cast<Value>(rng.UniformInt(1, 7));
    table(Table::kAkaTitle)
        .AppendRow({static_cast<Value>(i + 1), static_cast<Value>(movie + 1),
                    Str(Table::kAkaTitle, 2, "akat_" + std::to_string(i)),
                    kind});
  }
}

void ImdbGenerator::GenerateCastInfo() {
  Rng rng = rng_.Fork();
  ZipfTable movie_zipf(profile_.title, 0.3);
  ZipfTable person_zipf(profile_.name, 0.35);
  ZipfTable char_zipf(profile_.char_name, 0.4);
  ZipfTable nr_order_zipf(50, 1.0);
  // Role weights by gender: male-heavy roles vs actress for women.
  const std::vector<double> male_roles = {40, 1, 8, 9, 4, 4, 1, 7, 5, 15, 3, 3};
  const std::vector<double> female_roles = {2, 45, 5, 7, 2, 2, 6, 4, 5, 15, 4, 3};
  const std::vector<std::string> notes = {"(voice)", "(uncredited)",
                                          "(credit only)", "(archive footage)"};
  for (int64_t i = 0; i < profile_.cast_info; ++i) {
    const int32_t movie =
        movie_pop_[static_cast<size_t>(movie_zipf.Sample(&rng))];
    const int32_t person =
        person_pop_[static_cast<size_t>(person_zipf.Sample(&rng))];
    const int32_t gender = name_gender_[static_cast<size_t>(person)];
    const auto& weights = gender == 1 ? female_roles : male_roles;
    const Value role = static_cast<Value>(WeightedPick(&rng, weights)) + 1;
    const Value person_role =
        rng.Uniform() < 0.4
            ? kNullValue
            : static_cast<Value>(char_zipf.Sample(&rng) + 1);
    const Value note =
        rng.Uniform() < 0.6
            ? kNullValue
            : Str(Table::kCastInfo, 5,
                  notes[static_cast<size_t>(rng.UniformInt(0, 3))]);
    const Value nr_order =
        rng.Uniform() < 0.3
            ? kNullValue
            : static_cast<Value>(nr_order_zipf.Sample(&rng) + 1);
    table(Table::kCastInfo)
        .AppendRow({static_cast<Value>(i + 1), static_cast<Value>(person + 1),
                    static_cast<Value>(movie + 1), person_role, role, note,
                    nr_order});
  }
}

void ImdbGenerator::GenerateCompleteCast() {
  Rng rng = rng_.Fork();
  ZipfTable movie_zipf(profile_.title, 0.3);
  for (int64_t i = 0; i < profile_.complete_cast; ++i) {
    const int32_t movie =
        movie_pop_[static_cast<size_t>(movie_zipf.Sample(&rng))];
    const Value subject = static_cast<Value>(rng.UniformInt(1, 2));
    const Value status = static_cast<Value>(rng.UniformInt(3, 4));
    table(Table::kCompleteCast)
        .AppendRow({static_cast<Value>(i + 1), static_cast<Value>(movie + 1),
                    subject, status});
  }
}

void ImdbGenerator::GenerateMovieCompanies() {
  Rng rng = rng_.Fork();
  ZipfTable movie_zipf(profile_.title, 0.3);
  ZipfTable company_zipf(profile_.company_name, 0.8);
  const std::vector<std::string> notes = {"(2006) (worldwide)",
                                          "(presents)", "(co-production)",
                                          "(as distributor)"};
  for (int64_t i = 0; i < profile_.movie_companies; ++i) {
    const int32_t movie =
        movie_pop_[static_cast<size_t>(movie_zipf.Sample(&rng))];
    const int32_t company =
        static_cast<int32_t>(company_zipf.Sample(&rng));
    // Company type correlates with the company's country: US companies are
    // mostly production companies, foreign ones mostly distributors.
    const bool is_us = company_country_[static_cast<size_t>(company)] == 0;
    const std::vector<double> us_weights = {70, 18, 6, 6};
    const std::vector<double> other_weights = {28, 55, 7, 10};
    const Value company_type = static_cast<Value>(WeightedPick(
                                   &rng, is_us ? us_weights : other_weights)) +
                               1;
    const Value note =
        rng.Uniform() < 0.5
            ? kNullValue
            : Str(Table::kMovieCompanies, 4,
                  notes[static_cast<size_t>(rng.UniformInt(0, 3))]);
    table(Table::kMovieCompanies)
        .AppendRow({static_cast<Value>(i + 1), static_cast<Value>(movie + 1),
                    static_cast<Value>(company + 1), company_type, note});
  }
}

void ImdbGenerator::GenerateMovieInfo() {
  Rng rng = rng_.Fork();
  ZipfTable movie_zipf(profile_.title, 0.3);
  const std::vector<int32_t> info_ids = {
      info_types::kGenre,    info_types::kCountry, info_types::kLanguage,
      info_types::kRuntime,  info_types::kReleaseDates, 6, 7, 8, 16, 18};
  const std::vector<double> info_weights = {30, 20, 15, 12, 10, 4, 3, 3, 2, 1};
  const std::vector<std::string> genres = {
      "drama",   "comedy",    "documentary", "action", "thriller", "romance",
      "horror",  "crime",     "adventure",   "family", "animation", "music",
      "mystery", "fantasy",   "sci-fi",      "short",  "biography", "history",
      "war",     "western",   "sport",       "musical", "film-noir", "news"};
  const auto countries = Pool("country", 30);
  const auto languages = Pool("lang", 25);
  const auto runtimes = Pool("rt", 12);
  const auto releases = Pool("rel", 36);
  const auto misc = Pool("minfo", 40);
  ZipfTable genre_zipf(24, 0.9);
  ZipfTable country_zipf(30, 1.2);
  ZipfTable lang_zipf(25, 1.3);
  ZipfTable runtime_zipf(12, 0.8);
  for (int64_t i = 0; i < profile_.movie_info; ++i) {
    const int32_t movie =
        movie_pop_[static_cast<size_t>(movie_zipf.Sample(&rng))];
    const size_t pick = WeightedPick(&rng, info_weights);
    const int32_t info_type = info_ids[pick];
    std::string info;
    switch (info_type) {
      case info_types::kGenre: {
        // Genre depends on the title's kind and era: rotating the Zipf head
        // by a (kind, era) offset creates strong conditional correlation
        // that an independence-based estimator cannot see.
        const int32_t kind = title_kind_[static_cast<size_t>(movie)];
        const int32_t year = title_year_[static_cast<size_t>(movie)];
        const int32_t era = year == 0 ? 0 : (year - 1900) / 25;
        const size_t offset = static_cast<size_t>((kind * 5 + era * 3) % 24);
        const size_t rank = static_cast<size_t>(genre_zipf.Sample(&rng));
        info = genres[(rank + offset) % 24];
        break;
      }
      case info_types::kCountry:
        info = countries[static_cast<size_t>(country_zipf.Sample(&rng))];
        break;
      case info_types::kLanguage:
        info = languages[static_cast<size_t>(lang_zipf.Sample(&rng))];
        break;
      case info_types::kRuntime:
        info = runtimes[static_cast<size_t>(runtime_zipf.Sample(&rng))];
        break;
      case info_types::kReleaseDates:
        info = releases[static_cast<size_t>(rng.UniformInt(0, 35))];
        break;
      default:
        info = misc[static_cast<size_t>(rng.UniformInt(0, 39))];
        break;
    }
    table(Table::kMovieInfo)
        .AppendRow({static_cast<Value>(i + 1), static_cast<Value>(movie + 1),
                    static_cast<Value>(info_type),
                    Str(Table::kMovieInfo, 3, info)});
  }
}

void ImdbGenerator::GenerateMovieInfoIdx() {
  Rng rng = rng_.Fork();
  ZipfTable movie_zipf(profile_.title, 0.3);
  const std::vector<double> type_weights = {50, 42, 8};
  const std::vector<int32_t> type_ids = {info_types::kRating,
                                         info_types::kVotes,
                                         info_types::kTop250Rank};
  const auto ratings = Pool("rating", 10);   // rating_0 (lowest) .. rating_9
  const auto votes = Pool("votes", 12);      // votes_0 (fewest) .. votes_11
  for (int64_t i = 0; i < profile_.movie_info_idx; ++i) {
    const int64_t rank = movie_zipf.Sample(&rng);
    const int32_t movie = movie_pop_[static_cast<size_t>(rank)];
    const size_t pick = WeightedPick(&rng, type_weights);
    const int32_t info_type = type_ids[pick];
    // Popular movies get more votes and slightly better ratings: the
    // popularity rank shifts the bucket.
    const double pop_frac = 1.0 - static_cast<double>(rank) /
                                      static_cast<double>(profile_.title);
    std::string info;
    if (info_type == info_types::kRating) {
      const int32_t bucket = std::clamp(
          static_cast<int32_t>(rng.Gaussian(4.0 + 4.0 * pop_frac, 1.8)), 0, 9);
      info = ratings[static_cast<size_t>(bucket)];
    } else if (info_type == info_types::kVotes) {
      const int32_t bucket = std::clamp(
          static_cast<int32_t>(rng.Gaussian(10.0 * pop_frac, 1.5)), 0, 11);
      info = votes[static_cast<size_t>(bucket)];
    } else {
      info = "top250_" + std::to_string(rng.UniformInt(1, 250));
    }
    table(Table::kMovieInfoIdx)
        .AppendRow({static_cast<Value>(i + 1), static_cast<Value>(movie + 1),
                    static_cast<Value>(info_type),
                    Str(Table::kMovieInfoIdx, 3, info)});
  }
}

void ImdbGenerator::GenerateMovieKeyword() {
  Rng rng = rng_.Fork();
  ZipfTable movie_zipf(profile_.title, 0.35);
  ZipfTable keyword_zipf(profile_.keyword, 1.05);
  for (int64_t i = 0; i < profile_.movie_keyword; ++i) {
    const int32_t movie =
        movie_pop_[static_cast<size_t>(movie_zipf.Sample(&rng))];
    const Value keyword = static_cast<Value>(keyword_zipf.Sample(&rng) + 1);
    table(Table::kMovieKeyword)
        .AppendRow({static_cast<Value>(i + 1), static_cast<Value>(movie + 1),
                    keyword});
  }
}

void ImdbGenerator::GenerateMovieLink() {
  Rng rng = rng_.Fork();
  ZipfTable movie_zipf(profile_.title, 0.3);
  ZipfTable link_zipf(18, 1.0);
  for (int64_t i = 0; i < profile_.movie_link; ++i) {
    const int32_t movie =
        movie_pop_[static_cast<size_t>(movie_zipf.Sample(&rng))];
    int32_t linked = movie;
    while (linked == movie) {
      linked = movie_pop_[static_cast<size_t>(movie_zipf.Sample(&rng))];
    }
    table(Table::kMovieLink)
        .AppendRow({static_cast<Value>(i + 1), static_cast<Value>(movie + 1),
                    static_cast<Value>(linked + 1),
                    static_cast<Value>(link_zipf.Sample(&rng) + 1)});
  }
}

void ImdbGenerator::GeneratePersonInfo() {
  Rng rng = rng_.Fork();
  ZipfTable person_zipf(profile_.name, 0.35);
  const std::vector<double> type_weights = {40, 20, 40};
  const std::vector<int32_t> type_ids = {info_types::kBirthDate,
                                         info_types::kHeight,
                                         info_types::kBiography};
  const auto birth_decades = Pool("born", 14);
  ZipfTable decade_zipf(14, 0.5);
  const auto heights = Pool("cm", 20);
  const auto bios = Pool("bio", 50);
  for (int64_t i = 0; i < profile_.person_info; ++i) {
    const int32_t person =
        person_pop_[static_cast<size_t>(person_zipf.Sample(&rng))];
    const size_t pick = WeightedPick(&rng, type_weights);
    const int32_t info_type = type_ids[pick];
    std::string info;
    if (info_type == info_types::kBirthDate) {
      info = birth_decades[static_cast<size_t>(decade_zipf.Sample(&rng))];
    } else if (info_type == info_types::kHeight) {
      info = heights[static_cast<size_t>(rng.UniformInt(0, 19))];
    } else {
      info = bios[static_cast<size_t>(rng.UniformInt(0, 49))];
    }
    const Value note = rng.Uniform() < 0.8
                           ? kNullValue
                           : Str(Table::kPersonInfo, 4, "pi_note");
    table(Table::kPersonInfo)
        .AppendRow({static_cast<Value>(i + 1), static_cast<Value>(person + 1),
                    static_cast<Value>(info_type),
                    Str(Table::kPersonInfo, 3, info), note});
  }
}

}  // namespace

ScaleProfile ScaleProfile::Small() { return Medium().Scaled(0.05); }

ScaleProfile ScaleProfile::Scaled(double factor) const {
  LQOLAB_CHECK_GT(factor, 0.0);
  auto scale = [factor](int64_t n) {
    return std::max<int64_t>(8, static_cast<int64_t>(n * factor));
  };
  ScaleProfile p = *this;
  p.keyword = scale(keyword);
  p.company_name = scale(company_name);
  p.name = scale(name);
  p.char_name = scale(char_name);
  p.aka_name = scale(aka_name);
  p.title = scale(title);
  p.aka_title = scale(aka_title);
  p.cast_info = scale(cast_info);
  p.complete_cast = scale(complete_cast);
  p.movie_companies = scale(movie_companies);
  p.movie_info = scale(movie_info);
  p.movie_info_idx = scale(movie_info_idx);
  p.movie_keyword = scale(movie_keyword);
  p.movie_link = scale(movie_link);
  p.person_info = scale(person_info);
  return p;
}

std::vector<std::unique_ptr<storage::Table>> GenerateImdb(
    const catalog::Schema& schema, const ScaleProfile& profile,
    uint64_t seed) {
  ImdbGenerator generator(schema, profile, seed);
  return generator.Generate();
}

std::vector<std::shared_ptr<storage::Table>> SubsampleCascade(
    const catalog::Schema& schema,
    const std::vector<std::shared_ptr<storage::Table>>& full,
    catalog::TableId root, double keep_fraction, uint64_t seed) {
  LQOLAB_CHECK(keep_fraction > 0.0 && keep_fraction <= 1.0);
  Rng rng(seed);

  // Decide which root-table ids survive.
  const storage::Table& root_table = *full[static_cast<size_t>(root)];
  std::unordered_set<Value> kept_ids;
  for (storage::RowId row = 0; row < root_table.row_count(); ++row) {
    if (rng.Bernoulli(keep_fraction)) {
      kept_ids.insert(root_table.column(0).at(row));
    }
  }

  std::vector<std::shared_ptr<storage::Table>> out;
  out.reserve(full.size());
  for (TableId t = 0; t < schema.table_count(); ++t) {
    const catalog::TableDef& def = schema.table(t);
    const storage::Table& src = *full[static_cast<size_t>(t)];
    auto dst = std::make_unique<storage::Table>(t, def);

    // Columns whose values must exist in the surviving root set.
    std::vector<catalog::ColumnId> root_fks;
    for (const auto& fk : def.foreign_keys) {
      if (fk.referenced_table == root) root_fks.push_back(fk.column);
    }
    const bool is_root = t == root;

    for (storage::RowId row = 0; row < src.row_count(); ++row) {
      bool keep = true;
      if (is_root) {
        keep = kept_ids.count(src.column(0).at(row)) > 0;
      } else {
        for (catalog::ColumnId fk_col : root_fks) {
          const Value v = src.column(fk_col).at(row);
          if (v != kNullValue && kept_ids.count(v) == 0) {
            keep = false;
            break;
          }
        }
      }
      if (!keep) continue;
      std::vector<Value> values(static_cast<size_t>(src.column_count()));
      for (int32_t c = 0; c < src.column_count(); ++c) {
        const Value v = src.column(c).at(row);
        if (v != kNullValue && def.columns[static_cast<size_t>(c)].type ==
                                   ColumnType::kString) {
          values[static_cast<size_t>(c)] =
              dst->column(c).InternString(src.column(c).StringAt(v));
        } else {
          values[static_cast<size_t>(c)] = v;
        }
      }
      dst->AppendRow(values);
    }
    out.push_back(std::move(dst));
  }
  return out;
}

std::vector<std::shared_ptr<storage::Table>> SubsampleTitleCascade(
    const catalog::Schema& schema,
    const std::vector<std::shared_ptr<storage::Table>>& full,
    double keep_fraction, uint64_t seed) {
  return SubsampleCascade(schema, full, Table::kTitle, keep_fraction, seed);
}

}  // namespace lqolab::datagen
