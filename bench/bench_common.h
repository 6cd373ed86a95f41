#ifndef LQOLAB_BENCH_BENCH_COMMON_H_
#define LQOLAB_BENCH_BENCH_COMMON_H_

// Shared setup for the per-figure/table bench binaries. Every binary
// regenerates one experiment of the paper; the database scale can be
// reduced for quick runs via the LQOLAB_SCALE environment variable
// (default 1.0 = the standard ~0.7M-row database; training-heavy benches
// pick their own default).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "benchkit/parallel_runner.h"
#include "catalog/imdb_schema.h"
#include "catalog/tpch_schema.h"
#include "datagen/tpch_generator.h"
#include "engine/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/sql_workload.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace lqolab::bench {

/// Standard experiment seed (shared by all binaries, like the paper's fixed
/// setup).
inline constexpr uint64_t kSeed = 42;

inline double EnvScale(double default_scale) {
  const char* env = std::getenv("LQOLAB_SCALE");
  if (env == nullptr) return default_scale;
  const double scale = std::atof(env);
  return scale > 0.0 ? scale : default_scale;
}

/// Measurement/training worker count from LQOLAB_PARALLELISM; 0 (the
/// default) lets the runner pick hardware_concurrency. Results are
/// identical for every value — the parallel runner's determinism contract
/// (docs/parallelism.md) — so this only trades wall-clock time.
inline int32_t EnvParallelism() {
  const char* env = std::getenv("LQOLAB_PARALLELISM");
  if (env == nullptr) return 0;
  const int32_t workers = std::atoi(env);
  return workers > 0 ? workers : 0;
}

/// Shared RunnerOptions for the bench drivers.
inline benchkit::RunnerOptions MeasureOptions() {
  benchkit::RunnerOptions options;
  options.parallelism = EnvParallelism();
  options.seed = kSeed;
  return options;
}

/// Parses `--trace <path>` / `--trace=<path>` from the binary's argv.
/// Returns the path, or "" when tracing was not requested.
inline std::string TraceFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) return argv[i + 1];
    if (arg.rfind("--trace=", 0) == 0) return arg.substr(8);
  }
  return "";
}

/// Structured-trace sink for a bench driver: a JSONL TraceWriter plus a
/// MetricsRegistry collecting on the main thread (the parallel runners
/// merge worker counters into it). Inactive — and metrics stay disabled,
/// costing nothing — when no --trace path was given.
class BenchTrace {
 public:
  BenchTrace(int argc, char** argv) : path_(TraceFlag(argc, argv)) {
    if (path_.empty()) return;
    writer_ = std::make_unique<obs::TraceWriter>(path_);
    if (!writer_->ok()) {
      std::fprintf(stderr, "cannot open trace file %s\n", path_.c_str());
      std::exit(1);
    }
    scope_ = std::make_unique<obs::MetricsScope>(&metrics_);
  }

  bool enabled() const { return writer_ != nullptr; }
  obs::TraceWriter* writer() { return writer_.get(); }

  /// Appends one workload's records when tracing is enabled.
  void Write(const benchkit::WorkloadMeasurement& workload) {
    if (enabled()) benchkit::WriteWorkloadTrace(workload, writer_.get());
  }

  /// Appends the aggregated engine metrics and reports where the trace
  /// went. Call once at the end of main.
  void Finish() {
    if (!enabled()) return;
    obs::WriteMetricsTrace(metrics_, writer_.get());
    std::printf("\ntrace: %lld records -> %s\n",
                static_cast<long long>(writer_->records_written()),
                path_.c_str());
  }

 private:
  std::string path_;
  std::unique_ptr<obs::TraceWriter> writer_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::MetricsScope> scope_;
};

/// Training worker count for LearnedOptimizer::set_training_parallelism: at
/// least 1 so benches always use the deterministic replay path.
inline int32_t TrainParallelism() {
  const int32_t workers = EnvParallelism();
  return workers > 0 ? workers : util::ThreadPool::DefaultParallelism();
}

/// Creates the standard benchmark database.
inline std::unique_ptr<engine::Database> MakeDatabase(
    double default_scale = 1.0,
    engine::DbConfig config = engine::DbConfig::OurFramework()) {
  engine::Database::Options options;
  options.profile =
      datagen::ScaleProfile::Medium().Scaled(EnvScale(default_scale));
  options.seed = kSeed;
  options.config = config;
  return engine::Database::CreateImdb(options);
}

/// Parses `--workload <job|job_complex|tpch>` / `--workload=<name>` from
/// the binary's argv (names as in query::LoadWorkload). Returns "job"
/// (JOB-lite) when the flag is absent.
inline std::string WorkloadFlag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) return argv[i + 1];
    if (arg.rfind("--workload=", 0) == 0) return arg.substr(11);
  }
  return "job";
}

/// Schema the named workload binds against: IMDB for job/job_complex,
/// TPC-H-lite for tpch.
inline catalog::Schema WorkloadSchema(const std::string& workload) {
  return workload == "tpch" ? catalog::BuildTpchSchema()
                            : catalog::BuildImdbSchema();
}

/// Creates the benchmark database for the named workload: the standard
/// IMDB database for job/job_complex, the TPC-H-lite database for tpch
/// (same seed, same LQOLAB_SCALE knob).
inline std::unique_ptr<engine::Database> MakeWorkloadDatabase(
    const std::string& workload, double default_scale = 1.0,
    engine::DbConfig config = engine::DbConfig::OurFramework()) {
  if (workload != "tpch") return MakeDatabase(default_scale, config);
  engine::Database::Options options;
  options.seed = kSeed;
  options.config = config;
  return engine::Database::CreateTpch(
      options,
      datagen::TpchScaleProfile::Medium().Scaled(EnvScale(default_scale)));
}

/// Writes a bench's JSON `document` to `path`, or to stdout when `path` is
/// null. Returns false, after a "cannot open" line on stderr, when the file
/// cannot be opened; a written file is reported as "wrote <path>".
inline bool WriteDocument(const char* path, const std::string& document) {
  if (path == nullptr) {
    std::fputs(document.c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  std::fputs(document.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path);
  return true;
}

inline void PrintHeader(const char* experiment, const char* paper_ref,
                        const char* summary) {
  std::printf("==============================================================\n");
  std::printf("%s  (%s)\n", experiment, paper_ref);
  std::printf("%s\n", summary);
  std::printf("==============================================================\n\n");
}

}  // namespace lqolab::bench

#endif  // LQOLAB_BENCH_BENCH_COMMON_H_
