// google-benchmark microbenchmarks for the engine components: planning
// (DP and GEQO), virtual-time execution, ANALYZE, the true-cardinality
// oracle, and value-network forward/backward passes.
//
// `--engine-json [path]` instead runs the execution-engine throughput
// comparison (scalar vs vectorized oracle hot path over the JOB-lite
// workload), a buffer-pool replay (the page stream the executor charges
// on JOB-lite, replayed through storage::BufferPool in two sizings) and an
// index-probe replay (every IMDB foreign key probed both ways through
// storage::Index::EqualRange), and emits one JSON document; the recorded
// run lives at BENCH_engine.json. Exit code 1 if the batched engine falls
// below the 3x speedup floor docs/execution.md documents, or if replay
// rounds disagree on a tier count or a match count.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "bench_common.h"
#include "lqo/encoding.h"
#include "lqo/value_net.h"
#include "ml/nn.h"
#include "stats/column_stats.h"
#include "storage/buffer_pool.h"
#include "storage/index.h"

namespace {

using namespace lqolab;

engine::Database* SharedDb() {
  static engine::Database* db = [] {
    engine::Database::Options options;
    options.profile = datagen::ScaleProfile::Medium().Scaled(0.1);
    options.seed = bench::kSeed;
    return engine::Database::CreateImdb(options).release();
  }();
  return db;
}

const std::vector<query::Query>& SharedWorkload() {
  static const std::vector<query::Query> workload =
      query::LoadWorkload("job", SharedDb()->schema());
  return workload;
}

void BM_PlannerDpSmall(benchmark::State& state) {
  auto* db = SharedDb();
  const query::Query q = query::LoadWorkloadQuery("job", "3a", db->schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->planner().PlanDynamicProgramming(q, true));
  }
}
BENCHMARK(BM_PlannerDpSmall);

void BM_PlannerDpMedium(benchmark::State& state) {
  auto* db = SharedDb();
  const query::Query q = query::LoadWorkloadQuery("job", "22a", db->schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->planner().PlanDynamicProgramming(q, true));
  }
}
BENCHMARK(BM_PlannerDpMedium);

void BM_PlannerGeqo17Relations(benchmark::State& state) {
  auto* db = SharedDb();
  const query::Query q = query::LoadWorkloadQuery("job", "29a", db->schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->planner().PlanGenetic(q, optimizer::GeqoParams{}));
  }
}
BENCHMARK(BM_PlannerGeqo17Relations);

void BM_ExecuteWarmQuery(benchmark::State& state) {
  auto* db = SharedDb();
  const query::Query& q = SharedWorkload()[0];
  const auto planned = db->PlanQuery(q);
  db->ExecutePlan(q, planned.plan);  // warm caches & oracle memo
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->ExecutePlan(q, planned.plan));
  }
}
BENCHMARK(BM_ExecuteWarmQuery);

void BM_AnalyzeCastInfo(benchmark::State& state) {
  auto* db = SharedDb();
  const auto& table = db->context().table(catalog::imdb::kCastInfo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::Analyze(table));
  }
}
BENCHMARK(BM_AnalyzeCastInfo);

void BM_EstimateJoinRows(benchmark::State& state) {
  auto* db = SharedDb();
  const query::Query& q = SharedWorkload()[70];
  const auto& estimator = db->planner().estimator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.EstimateJoinRows(q, q.FullMask()));
  }
}
BENCHMARK(BM_EstimateJoinRows);

void BM_OracleColdPairJoin(benchmark::State& state) {
  auto* db = SharedDb();
  // A fresh query fingerprint each iteration forces an unmemoized join;
  // its filtered bases and build table come warm from the replica's cache.
  const query::Query base = query::LoadWorkloadQuery("job", "3a", db->schema());
  int64_t counter = 0;
  for (auto _ : state) {
    query::Query q = base;
    q.id = "micro_" + std::to_string(counter++);
    const query::AliasMask mask = query::MaskOf(0) | query::MaskOf(1);
    benchmark::DoNotOptimize(db->oracle().TrueJoinRows(q, mask));
  }
}
BENCHMARK(BM_OracleColdPairJoin);

void BM_ValueNetForward(benchmark::State& state) {
  auto* db = SharedDb();
  const query::Query& q = SharedWorkload()[20];
  const auto planned = db->PlanQuery(q);
  lqo::QueryEncoder qenc(&db->context(), &db->planner().estimator());
  lqo::PlanEncoder penc(&db->context(), &db->planner().estimator(),
                        lqo::PlanEncodingStyle::kWithTableIdentity);
  lqo::TreeValueNet net(penc.node_dim(), qenc.dim(), 64, 1);
  const auto features = qenc.Encode(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Score(features, q, planned.plan, penc));
  }
}
BENCHMARK(BM_ValueNetForward);

void BM_ValueNetTrainStep(benchmark::State& state) {
  auto* db = SharedDb();
  const query::Query& q = SharedWorkload()[20];
  const auto planned = db->PlanQuery(q);
  lqo::QueryEncoder qenc(&db->context(), &db->planner().estimator());
  lqo::PlanEncoder penc(&db->context(), &db->planner().estimator(),
                        lqo::PlanEncodingStyle::kWithTableIdentity);
  lqo::TreeValueNet net(penc.node_dim(), qenc.dim(), 64, 1);
  ml::Adam adam(net.Params());
  const auto features = qenc.Encode(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net.TrainRegression(features, q, planned.plan, penc, 0.5f, &adam));
  }
}
BENCHMARK(BM_ValueNetTrainStep);

void BM_GenerateSmallImdb(benchmark::State& state) {
  const catalog::Schema schema = catalog::BuildImdbSchema();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        datagen::GenerateImdb(schema, datagen::ScaleProfile::Small(), 1));
  }
}
BENCHMARK(BM_GenerateSmallImdb);

// --- Execution-engine throughput comparison (--engine-json) ----------------

/// One cold pass of the oracle hot path over the whole workload: filter
/// every base relation and materialize every connected 2-alias join. Run on
/// a fresh replica, whose oracle has no memo and an empty base cache, so
/// each distinct filtered base is scanned once per pass and each join runs
/// its kernels; the returned row count (identical for every engine, by the
/// byte-identity contract) is the throughput numerator.
int64_t OracleSweep(engine::Database* db,
                    const std::vector<query::Query>& workload) {
  int64_t rows = 0;
  for (const query::Query& q : workload) {
    for (query::AliasId a = 0; a < q.relation_count(); ++a) {
      rows += static_cast<int64_t>(db->oracle().FilteredRows(q, a).size());
    }
    for (query::AliasId a = 0; a < q.relation_count(); ++a) {
      for (query::AliasId b = static_cast<query::AliasId>(a + 1);
           b < q.relation_count(); ++b) {
        const query::AliasMask mask = query::MaskOf(a) | query::MaskOf(b);
        if (!q.IsConnected(mask)) continue;
        const auto card = db->oracle().TrueJoinRows(q, mask);
        if (!card.overflow) rows += card.rows;
      }
    }
    db->oracle().ReleaseMaterializations();
  }
  return rows;
}

/// IMDB at the medium scale profile, the data bench/layer_profile's `job`
/// runs on.
std::unique_ptr<engine::Database> CreateMediumImdb() {
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Medium();
  options.seed = bench::kSeed;
  return engine::Database::CreateImdb(options);
}

/// The page keys the executor charges on the JOB-lite workload, recorded
/// the way bench/layer_profile's `job` runs it: a cold pool, each query
/// planned once and executed three times with no cache drops in between.
std::vector<uint64_t> RecordJobLitePages(engine::Database* db) {
  const std::vector<query::Query> workload =
      query::LoadWorkload("job", db->schema());
  std::vector<uint64_t> stream;
  db->context().buffer_pool->RecordAccesses(&stream);
  for (const query::Query& q : workload) {
    const auto planned = db->PlanQuery(q);
    for (int run = 0; run < 3; ++run) db->ExecutePlan(q, planned.plan);
  }
  db->context().buffer_pool->RecordAccesses(nullptr);
  return stream;
}

struct IndexProbeResult {
  int64_t probes = 0;
  int64_t matched_rows = 0;
  double ns_per_probe = 0.0;  // best (min) round
  bool deterministic = true;  // every round matched the same rows
};

/// Probes every IMDB foreign key both ways through the shared indexes, as
/// whole-table joins do: each child row's non-NULL key against the parent's
/// `id` index, and each parent id against the child's key index, in row
/// order. Replayed kRounds times; the fastest round is kept (min-of-N, as
/// in EngineComparison).
IndexProbeResult IndexProbeReplay(engine::Database* db) {
  struct Stream {
    const storage::Value* keys;
    int64_t rows;
    const storage::Index* index;
  };
  const catalog::Schema& schema = db->schema();
  const exec::DbContext& ctx = db->context();
  std::vector<Stream> streams;
  for (catalog::TableId child = 0; child < schema.table_count(); ++child) {
    const storage::Table& child_table = ctx.table(child);
    for (const catalog::ForeignKey& fk : schema.table(child).foreign_keys) {
      const storage::Table& parent_table = ctx.table(fk.referenced_table);
      streams.push_back({child_table.column(fk.column).data(),
                         child_table.row_count(),
                         ctx.FindIndex(fk.referenced_table, 0)});
      streams.push_back({parent_table.column(0).data(),
                         parent_table.row_count(),
                         ctx.FindIndex(child, fk.column)});
    }
  }

  constexpr int kRounds = 7;
  IndexProbeResult result;
  for (int round = 0; round < kRounds; ++round) {
    int64_t probes = 0;
    int64_t matched = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const Stream& stream : streams) {
      for (int64_t row = 0; row < stream.rows; ++row) {
        const storage::Value key = stream.keys[row];
        if (key == storage::kNullValue) continue;
        ++probes;
        matched += static_cast<int64_t>(stream.index->EqualRange(key).size());
      }
    }
    benchmark::DoNotOptimize(matched);
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      static_cast<double>(probes);
    if (round == 0) {
      result.probes = probes;
      result.matched_rows = matched;
      result.ns_per_probe = ns;
    } else {
      result.deterministic &=
          probes == result.probes && matched == result.matched_rows;
      result.ns_per_probe = std::min(result.ns_per_probe, ns);
    }
  }
  std::fprintf(stderr,
               "index probe replay: %lld probes over %zu key columns, %lld "
               "matched rows, best round %.1f ns/probe\n",
               static_cast<long long>(result.probes), streams.size(),
               static_cast<long long>(result.matched_rows),
               result.ns_per_probe);
  return result;
}

struct ReplayResult {
  const char* regime;
  int64_t shared_pages;
  int64_t os_pages;
  int64_t accesses = 0;
  int64_t shared_hits = 0;
  int64_t os_hits = 0;
  int64_t disk_reads = 0;
  int64_t evictions = 0;
  double ns_per_access = 0.0;  // best (min) round
  bool deterministic = true;   // every round saw the same tier counts
};

/// Replays `stream` from a cold pool kRounds times and keeps the fastest
/// round (min-of-N, as in EngineComparison).
ReplayResult BufferReplay(const std::vector<uint64_t>& stream,
                          const char* regime, int64_t shared_pages,
                          int64_t os_pages) {
  constexpr int kRounds = 7;
  storage::BufferPool pool(shared_pages, os_pages);
  ReplayResult result{regime, shared_pages, os_pages};
  result.accesses = static_cast<int64_t>(stream.size());
  for (int round = 0; round < kRounds; ++round) {
    pool.DropCaches();
    const int64_t shared0 = pool.shared_hits();
    const int64_t os0 = pool.os_hits();
    const int64_t disk0 = pool.disk_reads();
    const int64_t evictions0 = pool.evictions();
    const auto t0 = std::chrono::steady_clock::now();
    for (const uint64_t key : stream) {
      benchmark::DoNotOptimize(pool.Access(key));
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      static_cast<double>(stream.size());
    const int64_t counts[] = {pool.shared_hits() - shared0,
                              pool.os_hits() - os0, pool.disk_reads() - disk0,
                              pool.evictions() - evictions0};
    if (round == 0) {
      result.shared_hits = counts[0];
      result.os_hits = counts[1];
      result.disk_reads = counts[2];
      result.evictions = counts[3];
      result.ns_per_access = ns;
    } else {
      result.deterministic &= counts[0] == result.shared_hits &&
                              counts[1] == result.os_hits &&
                              counts[2] == result.disk_reads &&
                              counts[3] == result.evictions;
      result.ns_per_access = std::min(result.ns_per_access, ns);
    }
  }
  std::fprintf(stderr,
               "buffer replay %s: %lld accesses, best round %.1f ns/access\n",
               regime, static_cast<long long>(result.accesses),
               result.ns_per_access);
  return result;
}

int EngineComparison(const char* path) {
  struct Spec {
    const char* name;
    bool vectorized;
  };
  const Spec specs[] = {{"scalar", false}, {"vectorized", true}};
  constexpr int kRounds = 5;

  struct Result {
    const char* name;
    int64_t rows = 0;       // rows produced by one sweep round
    double wall_ms = 0.0;   // best (min) round wall time
    double rows_per_sec = 0.0;
    // Per round: filtered-base requests, and the distinct bases scanned.
    int64_t base_requests = 0;
    int64_t base_fills = 0;
  };
  std::vector<Result> results;
  for (const Spec& spec : specs) {
    // Each round runs on a fresh replica, cloned outside the timer, so no
    // round finds the bases or build tables of an earlier one.
    auto fresh_replica = [&] {
      auto replica = SharedDb()->CloneContextForWorker();
      engine::DbConfig config = replica->config();
      config.vectorized_exec = spec.vectorized;
      replica->SetConfig(config);
      return replica;
    };
    Result result;
    result.name = spec.name;
    {
      // Untimed warm-up round (page first-touch of the shared columns),
      // which also counts the base cache's requests and fills.
      const auto replica = fresh_replica();
      obs::MetricsRegistry metrics;
      obs::MetricsScope scope(&metrics);
      OracleSweep(replica.get(), SharedWorkload());
      result.base_fills = replica->oracle().cached_bases();
      result.base_requests =
          result.base_fills + metrics.Get(obs::Counter::kOracleBaseReuses);
    }

    // Each round is timed separately and the best round is reported:
    // min-of-N is robust to scheduler interference, which only ever slows
    // a round down, so the minimum is the cleanest estimate of the
    // engine's actual throughput.
    for (int round = 1; round <= kRounds; ++round) {
      const auto replica = fresh_replica();
      const auto t0 = std::chrono::steady_clock::now();
      result.rows = OracleSweep(replica.get(), SharedWorkload());
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (round == 1 || ms < result.wall_ms) result.wall_ms = ms;
    }
    result.rows_per_sec = 1000.0 * static_cast<double>(result.rows) /
                          result.wall_ms;
    std::fprintf(stderr,
                 "%s: %lld rows/round, best round %.1f ms (%.3g rows/s), "
                 "%lld base requests over %lld distinct bases\n",
                 result.name, static_cast<long long>(result.rows),
                 result.wall_ms, result.rows_per_sec,
                 static_cast<long long>(result.base_requests),
                 static_cast<long long>(result.base_fills));
    results.push_back(result);
  }

  const std::unique_ptr<engine::Database> medium = CreateMediumImdb();
  const std::vector<uint64_t> stream = RecordJobLitePages(medium.get());
  const ReplayResult replays[] = {
      BufferReplay(stream, "no_fill", 131072, 262144),
      BufferReplay(stream, "both_evict", 512, 4096)};
  const IndexProbeResult index_probe = IndexProbeReplay(medium.get());

  const double speedup_vectorized =
      results[1].rows_per_sec / results[0].rows_per_sec;

  std::string json = "{\n";
  json += "  \"bench\": \"micro_engine\",\n";
  json += "  \"seed\": " + std::to_string(bench::kSeed) + ",\n";
  char buffer[256];
  json += "  \"configs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"config\": \"%s\", \"rows\": %lld, "
                  "\"wall_ms\": %.1f, \"rows_per_sec\": %.1f, "
                  "\"base_requests\": %lld, \"base_fills\": %lld}%s\n",
                  results[i].name, static_cast<long long>(results[i].rows),
                  results[i].wall_ms, results[i].rows_per_sec,
                  static_cast<long long>(results[i].base_requests),
                  static_cast<long long>(results[i].base_fills),
                  i + 1 < results.size() ? "," : "");
    json += buffer;
  }
  json += "  ],\n";
  json += "  \"buffer_replay\": [\n";
  bool replays_deterministic = true;
  for (size_t i = 0; i < std::size(replays); ++i) {
    const ReplayResult& r = replays[i];
    replays_deterministic &= r.deterministic;
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\"regime\": \"%s\", \"shared_pages\": %lld, "
        "\"os_pages\": %lld, \"accesses\": %lld, \"shared_hits\": %lld, "
        "\"os_hits\": %lld, \"disk_reads\": %lld, \"evictions\": %lld, "
        "\"buffer_ns_per_access\": %.1f}%s\n",
        r.regime, static_cast<long long>(r.shared_pages),
        static_cast<long long>(r.os_pages), static_cast<long long>(r.accesses),
        static_cast<long long>(r.shared_hits),
        static_cast<long long>(r.os_hits),
        static_cast<long long>(r.disk_reads),
        static_cast<long long>(r.evictions), r.ns_per_access,
        i + 1 < std::size(replays) ? "," : "");
    json += buffer;
  }
  json += "  ],\n";
  std::snprintf(buffer, sizeof(buffer),
                "  \"index_probe\": {\"probes\": %lld, \"matched_rows\": %lld, "
                "\"ns_per_probe\": %.1f},\n",
                static_cast<long long>(index_probe.probes),
                static_cast<long long>(index_probe.matched_rows),
                index_probe.ns_per_probe);
  json += buffer;
  std::snprintf(buffer, sizeof(buffer), "  \"speedup_vectorized\": %.2f\n}\n",
                speedup_vectorized);
  json += buffer;

  if (path != nullptr) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path);
  } else {
    std::fputs(json.c_str(), stdout);
  }
  return speedup_vectorized >= 3.0 && replays_deterministic &&
                 index_probe.deterministic
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--engine-json") {
      return EngineComparison(i + 1 < argc ? argv[i + 1] : nullptr);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
