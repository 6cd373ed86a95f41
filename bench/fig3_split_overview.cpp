// Figure 3: visualization of the three train/test split samplers on the
// base-query families of JOB (Leave One Out / Random / Base Query).
//
// --workload job|ext_job|job_complex|tpch picks the query set (default
// job). Every workload is a workloads/*.sql file loaded through the sql/
// frontend; the splits group families because sql::AssignQueryId maps each
// id onto template/variant.

#include "bench_common.h"
#include "benchkit/splits.h"

int main(int argc, char** argv) {
  using namespace lqolab;
  bench::PrintHeader("Figure 3", "paper §7.2",
                     "Train/Test assignment per sampler over the first five "
                     "base-query families (T = train, * = TEST).");

  const std::string workload_name = bench::WorkloadFlag(argc, argv);
  const catalog::Schema schema = bench::WorkloadSchema(workload_name);
  const auto workload = query::LoadWorkload(workload_name, schema);
  std::printf("workload: %s (%zu queries)\n\n", workload_name.c_str(),
              workload.size());
  // Show the first five families whatever the workload's template-id base
  // (JOB-lite counts from 1, the .sql workloads from 101).
  const int32_t family_limit = workload.front().template_id + 5;

  const benchkit::SplitKind kinds[] = {benchkit::SplitKind::kLeaveOneOut,
                                       benchkit::SplitKind::kRandom,
                                       benchkit::SplitKind::kBaseQuery};
  const char* difficulty[] = {"easy", "medium", "hard"};

  // Header row: query ids of the first 5 families.
  std::vector<std::string> headers = {"sampler"};
  for (const auto& q : workload) {
    if (q.template_id >= family_limit) break;
    headers.push_back(q.id);
  }
  util::TablePrinter table(headers);
  for (int k = 0; k < 3; ++k) {
    const auto split = benchkit::SampleSplit(workload, kinds[k], 0.2,
                                             bench::kSeed + static_cast<uint64_t>(k));
    std::vector<char> in_test(workload.size(), 0);
    for (int32_t i : split.test_indices) in_test[static_cast<size_t>(i)] = 1;
    std::vector<std::string> row = {std::string(
        benchkit::SplitKindName(kinds[k])) + " (" + difficulty[k] + ")"};
    for (size_t i = 0; i < workload.size(); ++i) {
      if (workload[i].template_id >= family_limit) break;
      row.push_back(in_test[i] ? "*" : "T");
    }
    table.AddRow(row);
    std::printf("%s: %zu train / %zu test queries\n",
                benchkit::SplitKindName(kinds[k]), split.train_indices.size(),
                split.test_indices.size());
  }
  std::printf("\n");
  table.Print();
  std::printf("\nBase Query Sampling holds out whole families; Leave One Out "
              "holds out exactly one variant per family.\n");
  return 0;
}
