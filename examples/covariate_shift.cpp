// Watch a learned optimizer degrade under covariate shift (paper §8.3).
//
// We shrink the database (Bernoulli-sampling `title` with CASCADE, like the
// paper's IMDB-50%), train one Bao model on each version, and evaluate both
// on the full data. Because Bao encodes plans only through cardinalities
// and costs — no table identities — the model trained in the smaller
// cardinality regime misjudges plans on the full database.
//
// Build & run:  cmake --build build && ./build/examples/covariate_shift

#include <algorithm>
#include <cstdio>

#include "benchkit/parallel_runner.h"
#include "benchkit/splits.h"
#include "datagen/imdb_generator.h"
#include "engine/database.h"
#include "lqo/bao.h"
#include "query/sql_workload.h"
#include "util/table_printer.h"

int main() {
  using namespace lqolab;

  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Medium().Scaled(0.25);
  options.seed = 42;
  auto full = engine::Database::CreateImdb(options);

  // Build shrunken copies at several keep fractions.
  util::TablePrinter overview({"database", "title rows", "cast_info rows"});
  std::vector<double> fractions = {1.0, 0.5, 0.25};
  std::vector<std::unique_ptr<engine::Database>> databases;
  for (double fraction : fractions) {
    std::unique_ptr<engine::Database> db;
    if (fraction == 1.0) {
      db = nullptr;  // use `full`
    } else {
      auto tables = datagen::SubsampleTitleCascade(
          full->schema(), full->context().tables(), fraction, 7);
      engine::Database::Options sub_options;
      sub_options.seed = 42;
      db = engine::Database::FromTables(sub_options, std::move(tables));
    }
    engine::Database& view = db ? *db : *full;
    overview.AddRow(
        {"IMDB-" + std::to_string(static_cast<int>(fraction * 100)) + "%",
         std::to_string(
             view.context().table(catalog::imdb::kTitle).row_count()),
         std::to_string(
             view.context().table(catalog::imdb::kCastInfo).row_count())});
    databases.push_back(std::move(db));
  }
  overview.Print();

  const auto workload = query::LoadWorkload("job", full->schema());
  const auto split = benchkit::SampleSplit(
      workload, benchkit::SplitKind::kBaseQuery, 0.2, 7);
  const auto train = benchkit::SelectQueries(workload, split.train_indices);
  const auto test = benchkit::SelectQueries(workload, split.test_indices);

  // Train one Bao per database version; evaluate ALL of them on the FULL
  // database (the shifted models have seen a different cardinality regime).
  std::printf("\ntraining one Bao model per database version...\n");
  benchkit::Protocol protocol;
  util::TablePrinter results({"model trained on", "execution on full DB",
                              "worst per-query regression",
                              "vs in-distribution"});
  util::VirtualNanos reference = 0;
  std::vector<benchkit::QueryMeasurement> reference_queries;
  for (size_t i = 0; i < fractions.size(); ++i) {
    lqo::BaoOptimizer::Options bao_options;
    bao_options.epochs = 3;
    bao_options.train_epochs = 12;
    lqo::BaoOptimizer bao(bao_options);
    engine::Database* train_db =
        databases[i] ? databases[i].get() : full.get();
    bao.Train(train, train_db);
    const auto result =
        benchkit::MeasureWorkload(full.get(), &bao, test, protocol);
    if (i == 0) {
      reference = result.total_execution_ns();
      reference_queries = result.queries;
    }
    // The aggregate can hide what covariate shift does per query.
    double worst = 1.0;
    std::string worst_id = "-";
    for (size_t k = 0; k < result.queries.size(); ++k) {
      const double factor =
          static_cast<double>(result.queries[k].execution_ns) /
          static_cast<double>(
              std::max<util::VirtualNanos>(1, reference_queries[k].execution_ns));
      if (factor > worst) {
        worst = factor;
        worst_id = result.queries[k].query_id;
      }
    }
    results.AddRow(
        {"IMDB-" + std::to_string(static_cast<int>(fractions[i] * 100)) + "%",
         util::FormatDuration(result.total_execution_ns()),
         i == 0 ? "-" : util::FormatFactor(worst) + " (" + worst_id + ")",
         util::FormatFactor(static_cast<double>(result.total_execution_ns()) /
                            static_cast<double>(std::max<util::VirtualNanos>(
                                1, reference)))});
  }
  results.Print();
  std::printf(
      "\nCardinality-only encodings cannot tell WHICH data changed — "
      "refreshed statistics alone do not keep a trained model current "
      "(paper §8.3). Per-query regressions and improvements both appear; "
      "run bench/fig7_covariate_shift for the full per-query breakdown.\n");
  return 0;
}
