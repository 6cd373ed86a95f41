// Fuzz soak: runs the differential plan-correctness oracle (src/fuzz/) over
// a rotation of engine configurations — bushy/left-deep, GEQO seeds and a
// lowered GEQO threshold — with the native-passthrough and Bao arms in the
// execution cross-check, and the oracle's engine arm comparing every query
// with the tuple-at-a-time reference, fuzz::ScalarOracle. Every
// configuration also runs the SQL round-trip arm: each generated query
// renders to SQL, re-binds through the sql/ frontend, and must
// fingerprint, render and DP-plan byte-identically. Each configuration
// runs kRepeats times from a fresh database, repeat-major (every
// configuration once, then again); its wall_ms is the fastest repeat
// (min-of-N: interference only ever slows a repeat down), and the
// soak exits 1 if the repeats disagree on any count. Emits one JSON
// document (stdout, or the file given as argv[1]) with queries/sec and
// checks/sec over the summed per-configuration wall_ms, and the
// discrepancy count, which must be zero; the recorded run lives at
// BENCH_fuzz.json.
//
// Knobs (environment):
//   LQOLAB_FUZZ_QUERIES   queries per configuration (default 250)
//   LQOLAB_FUZZ_SEED      generator seed (default 42)
//   LQOLAB_FUZZ_BUDGET_MS wall-clock budget per configuration (default 0 =
//                         run all queries)
//
// Replay a reproducer against the default configuration:
//   ./build/bench/fuzz_soak --replay tests/fuzz_corpus/<name>.sql

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/database.h"
#include "fuzz/fuzzer.h"
#include "lqo/bao.h"
#include "lqo/native_passthrough.h"

namespace {

using namespace lqolab;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? fallback : std::atoll(value);
}

std::unique_ptr<engine::Database> MakeFuzzDatabase(
    const engine::DbConfig& config) {
  engine::Database::Options options;
  // Same quarter-scale profile as tests/test_fuzz.cc: the oracle's
  // execution check is linear in table size.
  options.profile = datagen::ScaleProfile::Small().Scaled(0.25);
  options.seed = 42;
  options.config = config;
  return engine::Database::CreateImdb(options);
}

struct ConfigSpec {
  std::string name;
  engine::DbConfig config;
};

std::vector<ConfigSpec> ConfigRotation() {
  std::vector<ConfigSpec> specs;
  specs.push_back({"default", engine::DbConfig::OurFramework()});

  engine::DbConfig left_deep = engine::DbConfig::OurFramework();
  left_deep.enable_bushy = false;
  specs.push_back({"left_deep", left_deep});

  engine::DbConfig geqo_seeded = engine::DbConfig::OurFramework();
  geqo_seeded.geqo_seed = 0xfeed;
  specs.push_back({"geqo_seed_feed", geqo_seeded});

  engine::DbConfig geqo_heavy = engine::DbConfig::OurFramework();
  geqo_heavy.geqo_threshold = 4;  // GEQO plans most generated queries
  geqo_heavy.geqo_seed = 7;
  specs.push_back({"geqo_threshold_4", geqo_heavy});
  return specs;
}

/// Runs per configuration; tests/check_bench_gates.sh bounds ratios of
/// their fastest wall clocks.
constexpr int kRepeats = 3;

struct ConfigResult {
  std::string name;
  fuzz::FuzzStats stats;  // elapsed_ms: the fastest repeat
};

/// True when two runs of one configuration agree on every count.
bool SameCounts(const fuzz::FuzzStats& a, const fuzz::FuzzStats& b) {
  return a.queries == b.queries && a.checks == b.checks &&
         a.plans_executed == b.plans_executed && a.timeouts == b.timeouts &&
         a.discrepancies.size() == b.discrepancies.size();
}

fuzz::FuzzStats RunConfig(const ConfigSpec& spec, uint64_t seed,
                          int64_t queries, int64_t budget_ms) {
  const auto db = MakeFuzzDatabase(spec.config);
  fuzz::FuzzOptions options;
  options.seed = seed;
  options.num_queries = queries;
  options.time_budget_ms = budget_ms;
  options.corpus_dir = "fuzz_soak_found";
  fuzz::Fuzzer fuzzer(db.get(), options);
  lqo::NativePassthroughOptimizer passthrough;
  lqo::BaoOptimizer bao;
  fuzzer.AddLqoArm(&passthrough);
  fuzzer.AddLqoArm(&bao);
  return fuzzer.Run();
}

int Replay(const char* path) {
  const auto db = MakeFuzzDatabase(engine::DbConfig::OurFramework());
  fuzz::Fuzzer fuzzer(db.get(), {});
  lqo::NativePassthroughOptimizer passthrough;
  fuzzer.AddLqoArm(&passthrough);
  const fuzz::CheckReport report = fuzzer.Replay(path);
  for (const auto& d : report.discrepancies) {
    std::printf("DISCREPANCY %s: %s\n", d.check.c_str(), d.detail.c_str());
  }
  std::printf("%s: %lld checks, %zu discrepancies\n", path,
              static_cast<long long>(report.checks.total()),
              report.discrepancies.size());
  return report.failed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--replay") return Replay(argv[i + 1]);
  }

  const int64_t queries = EnvInt("LQOLAB_FUZZ_QUERIES", 250);
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("LQOLAB_FUZZ_SEED", 42));
  const int64_t budget_ms = EnvInt("LQOLAB_FUZZ_BUDGET_MS", 0);

  // Repeat-major: every configuration's repeat 1, then every repeat 2, and
  // so on, so host load that drifts during the soak reaches each
  // configuration's fastest repeat alike.
  const std::vector<ConfigSpec> specs = ConfigRotation();
  std::vector<ConfigResult> results(specs.size());
  bool repeats_agree = true;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (size_t c = 0; c < specs.size(); ++c) {
      ConfigResult& result = results[c];
      result.name = specs[c].name;
      fuzz::FuzzStats stats = RunConfig(specs[c], seed, queries, budget_ms);
      std::fprintf(stderr,
                   "%s (repeat %d): %lld queries, %lld checks, %zu "
                   "discrepancies, %lld ms\n",
                   result.name.c_str(), repeat + 1,
                   static_cast<long long>(stats.queries),
                   static_cast<long long>(stats.checks.total()),
                   stats.discrepancies.size(),
                   static_cast<long long>(stats.elapsed_ms));
      if (repeat == 0) {
        result.stats = std::move(stats);
        continue;
      }
      if (!SameCounts(stats, result.stats)) {
        std::fprintf(stderr, "  REPEAT MISMATCH: %s repeat %d counted "
                     "differently from repeat 1\n",
                     result.name.c_str(), repeat + 1);
        repeats_agree = false;
      }
      result.stats.elapsed_ms =
          std::min(result.stats.elapsed_ms, stats.elapsed_ms);
    }
  }
  for (const ConfigResult& result : results) {
    for (const auto& d : result.stats.discrepancies) {
      std::fprintf(stderr, "  DISCREPANCY %s: %s\n", d.check.c_str(),
                   d.detail.c_str());
    }
  }

  int64_t total_queries = 0;
  int64_t total_checks = 0;
  int64_t total_sql_round_trips = 0;
  int64_t total_discrepancies = 0;
  double wall_ms = 0.0;  // summed fastest repeats
  for (const ConfigResult& r : results) {
    wall_ms += static_cast<double>(r.stats.elapsed_ms);
    total_queries += r.stats.queries;
    total_checks += r.stats.checks.total();
    total_sql_round_trips += r.stats.checks.sql_round_trip;
    total_discrepancies += static_cast<int64_t>(r.stats.discrepancies.size());
  }

  std::string json = "{\n";
  json += "  \"bench\": \"fuzz_soak\",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n";
  json += "  \"repeats\": " + std::to_string(kRepeats) + ",\n";
  json += "  \"queries\": " + std::to_string(total_queries) + ",\n";
  json += "  \"checks\": " + std::to_string(total_checks) + ",\n";
  json += "  \"sql_round_trips\": " + std::to_string(total_sql_round_trips) +
          ",\n";
  json += "  \"discrepancies\": " + std::to_string(total_discrepancies) +
          ",\n";
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "  \"queries_per_sec\": %.1f,\n  \"checks_per_sec\": %.1f,\n",
                1000.0 * static_cast<double>(total_queries) / wall_ms,
                1000.0 * static_cast<double>(total_checks) / wall_ms);
  json += buffer;
  json += "  \"configs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"config\": \"%s\", \"queries\": %lld, \"checks\": %lld, "
        "\"plans_executed\": %lld, \"timeouts\": %lld, "
        "\"discrepancies\": %zu, \"wall_ms\": %lld}%s\n",
        r.name.c_str(), static_cast<long long>(r.stats.queries),
        static_cast<long long>(r.stats.checks.total()),
        static_cast<long long>(r.stats.plans_executed),
        static_cast<long long>(r.stats.timeouts),
        r.stats.discrepancies.size(),
        static_cast<long long>(r.stats.elapsed_ms),
        i + 1 < results.size() ? "," : "");
    json += buffer;
  }
  json += "  ]\n}\n";

  if (!bench::WriteDocument(argc > 1 ? argv[1] : nullptr, json)) return 1;
  return total_discrepancies == 0 && repeats_agree ? 0 : 1;
}
