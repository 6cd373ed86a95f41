// Ablation of the cardinality-estimator design choices called out in
// DESIGN.md (design decision 2): the full estimator (MCV-aware eqjoinsel +
// stepwise clamped join sizes, the PostgreSQL-style default) vs (a) no
// MCV join matching (plain 1/max(nd)) and (b) the naive full-product
// formula whose deep-chain collapse degenerates plan choice. The planner
// plans the whole workload under each estimator variant; the shared
// virtual-time executor (ground truth) scores the resulting plans.

#include "bench_common.h"
#include "benchkit/parallel_runner.h"

int main() {
  using namespace lqolab;
  bench::PrintHeader(
      "Estimator ablation", "DESIGN.md §4, design decision 2",
      "Plan quality under three estimator variants, identical execution "
      "ground truth.");

  auto db = bench::MakeDatabase();
  const auto workload = query::LoadWorkload("job", db->schema());
  benchkit::Protocol protocol;

  struct Variant {
    const char* name;
    engine::EstimatorMode mode;
  };
  const Variant variants[] = {
      {"full (MCV eqjoinsel + stepwise)", engine::EstimatorMode::kFull},
      {"no MCV join matching", engine::EstimatorMode::kNoMcvJoins},
      {"naive full product", engine::EstimatorMode::kNaiveProduct},
  };

  util::TablePrinter table({"estimator", "execution", "end-to-end",
                            "timeouts", "slowest query"});
  for (const Variant& variant : variants) {
    engine::DbConfig config = engine::DbConfig::OurFramework();
    config.estimator_mode = variant.mode;
    db->SetConfig(config);
    db->DropCaches();
    // A fresh runner per variant: worker replicas snapshot the parent's
    // configuration when created.
    const auto result = benchkit::MeasureWorkload(db.get(), nullptr, workload,
                                                  protocol,
                                                  bench::MeasureOptions());
    util::VirtualNanos slowest = 0;
    std::string slowest_id;
    for (const auto& m : result.queries) {
      if (m.execution_ns > slowest) {
        slowest = m.execution_ns;
        slowest_id = m.query_id;
      }
    }
    table.AddRow({variant.name,
                  util::FormatDuration(result.total_execution_ns()),
                  util::FormatDuration(result.total_end_to_end_ns()),
                  std::to_string(result.timeout_count()),
                  slowest_id + " (" + util::FormatDuration(slowest) + ")"});
  }
  table.Print();
  std::printf(
      "\nThe estimator quality feeds straight into plan quality: removing "
      "the MCV equi-join selectivities blinds the planner to Zipf-skewed "
      "join keys, and the naive product formula collapses every deep join "
      "estimate to ~1 row, making large-query join orders near-arbitrary. "
      "This gap between estimates and truth is exactly the opportunity the "
      "learned methods compete over.\n");
  return 0;
}
