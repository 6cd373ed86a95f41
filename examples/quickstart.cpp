// Quickstart: generate the synthetic IMDB, plan and execute JOB-lite
// queries, and inspect plans with EXPLAIN ANALYZE.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "engine/database.h"
#include "query/sql_workload.h"
#include "util/table_printer.h"

int main() {
  using namespace lqolab;

  // 1. Create a database: 21 IMDB tables, indexes, statistics. The seed
  //    makes the data (and thus every result below) fully reproducible.
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Medium().Scaled(0.25);
  options.seed = 42;
  options.config = engine::DbConfig::OurFramework();
  auto db = engine::Database::CreateImdb(options);
  std::printf("database ready: %lld heap pages\n\n",
              static_cast<long long>(db->TotalPages()));

  // 2. Load the JOB-lite workload (113 queries over 33 templates).
  const auto workload = query::LoadWorkload("job", db->schema());
  std::printf("workload: %zu queries, first is %s:\n  %s\n\n", workload.size(),
              workload[0].id.c_str(),
              workload[0].ToSql(db->schema()).c_str());

  // 3. EXPLAIN ANALYZE one query: the plan tree with estimated vs actual
  //    cardinalities, planning time and execution time.
  std::printf("%s\n", db->ExplainAnalyze(workload[0]).c_str());

  // 4. Run a few queries end to end and show the cold -> hot cache effect
  //    (the 1st execution is slower; §7.3 of the paper).
  util::TablePrinter table({"query", "joins", "run1", "run2", "run3", "rows"});
  for (size_t i = 0; i < 5; ++i) {
    const auto& q = workload[i * 7];
    const auto r1 = db->Run(q);
    const auto r2 = db->Run(q);
    const auto r3 = db->Run(q);
    table.AddRow({q.id, std::to_string(q.join_count()),
                  util::FormatDuration(r1.execution_ns),
                  util::FormatDuration(r2.execution_ns),
                  util::FormatDuration(r3.execution_ns),
                  std::to_string(r3.result_rows)});
  }
  table.Print();
  return 0;
}
