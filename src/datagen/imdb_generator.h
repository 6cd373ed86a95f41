#ifndef LQOLAB_DATAGEN_IMDB_GENERATOR_H_
#define LQOLAB_DATAGEN_IMDB_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/imdb_schema.h"
#include "catalog/schema.h"
#include "storage/table.h"

namespace lqolab::datagen {

/// Row counts for the synthetic IMDB database. Defaults give ~0.66M rows
/// total (~165 MB of simulated heap pages), small enough to train learned
/// optimizers on one core yet large enough for cache pressure and realistic
/// join fanouts.
struct ScaleProfile {
  int64_t keyword = 15000;
  int64_t company_name = 12000;
  int64_t name = 50000;
  int64_t char_name = 30000;
  int64_t aka_name = 15000;
  int64_t title = 40000;
  int64_t aka_title = 8000;
  int64_t cast_info = 140000;
  int64_t complete_cast = 14000;
  int64_t movie_companies = 52000;
  int64_t movie_info = 110000;
  int64_t movie_info_idx = 60000;
  int64_t movie_keyword = 70000;
  int64_t movie_link = 6000;
  int64_t person_info = 60000;

  /// Default profile.
  static ScaleProfile Medium() { return {}; }

  /// ~20x smaller; used by unit tests.
  static ScaleProfile Small();

  /// Uniformly scales all row counts by `factor` (>= such that every table
  /// keeps at least 8 rows).
  ScaleProfile Scaled(double factor) const;

  /// The scale-factor knob of the parallelism benchmarks: sf x Medium().
  /// sf 1 is the default ~0.66M-row database; sf 16 crosses 10M rows
  /// (~10.6M) while keeping the same skew and correlation structure, so
  /// storage-layer changes (buffer pool, page charging) can be benchmarked
  /// against a heap that dwarfs every cache tier.
  static ScaleProfile ForScaleFactor(double sf) {
    return Medium().Scaled(sf);
  }
};

/// Well-known info_type ids used by generated movie_info / movie_info_idx /
/// person_info rows and referenced by the workload's filters.
namespace info_types {
constexpr int32_t kGenre = 1;
constexpr int32_t kCountry = 2;
constexpr int32_t kLanguage = 3;
constexpr int32_t kRuntime = 4;
constexpr int32_t kReleaseDates = 5;
constexpr int32_t kRating = 99;       // movie_info_idx
constexpr int32_t kVotes = 100;       // movie_info_idx
constexpr int32_t kTop250Rank = 101;  // movie_info_idx
constexpr int32_t kBirthDate = 21;    // person_info
constexpr int32_t kHeight = 22;       // person_info
constexpr int32_t kBiography = 23;    // person_info
}  // namespace info_types

/// Generates all 21 IMDB tables deterministically from `seed`. The data is
/// skewed (Zipfian movie/person popularity, head-heavy keywords and
/// companies) and correlated across columns (genre x kind x year, company
/// country x company type, role x gender), so that the histogram-based
/// estimator makes realistic errors — the property that makes JOB hard
/// (paper §3.1).
std::vector<std::unique_ptr<storage::Table>> GenerateImdb(
    const catalog::Schema& schema, const ScaleProfile& profile, uint64_t seed);

/// Schema-generic subsample for the paper's covariate-shift experiment
/// (§8.3): keeps each row of `root` with probability `keep_fraction`
/// (Bernoulli) and cascades the deletion through every table with a foreign
/// key into `root`, preserving referential integrity. Tables without such a
/// foreign key are copied unchanged. Works for any schema built on this
/// catalog's conventions (IMDB around `title`, TPC-H-lite around `orders`).
std::vector<std::shared_ptr<storage::Table>> SubsampleCascade(
    const catalog::Schema& schema,
    const std::vector<std::shared_ptr<storage::Table>>& full,
    catalog::TableId root, double keep_fraction, uint64_t seed);

/// SubsampleCascade rooted at IMDB's `title` (the Fig. 7 IMDB-p% variant).
std::vector<std::shared_ptr<storage::Table>> SubsampleTitleCascade(
    const catalog::Schema& schema,
    const std::vector<std::shared_ptr<storage::Table>>& full,
    double keep_fraction, uint64_t seed);

}  // namespace lqolab::datagen

#endif  // LQOLAB_DATAGEN_IMDB_GENERATOR_H_
