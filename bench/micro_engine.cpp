// google-benchmark microbenchmarks for the engine components: planning
// (DP and GEQO), virtual-time execution, ANALYZE, the true-cardinality
// oracle, and value-network forward/backward passes.
//
// `--engine-json [path]` instead runs the execution-engine throughput
// comparison (the tuple-at-a-time reference, fuzz::ScalarOracle, vs the
// batched exec::Oracle over the JOB-lite workload), a buffer-pool replay (the page stream the executor charges
// on JOB-lite, replayed through storage::BufferPool in two sizings), a
// heap-charge replay (JOB-lite's index-NLJ heap charges, replayed through
// exec::Executor::ChargeRandomHeapPages on a fresh replica), an
// index-probe replay (every IMDB foreign key probed both ways through
// storage::Index::EqualRange), an analyze replay (stats::Analyze over
// every table of TPC-H-lite 4x and IMDB medium) and a cold TPC-H-lite
// arm (every query's first ExecutePlan on a fresh replica of TPC-H-lite
// 4x) and a GEQO arm (every JOB-lite query at or past geqo_threshold
// planned under Bao's six hint sets on IMDB medium), and emits one JSON
// document; the recorded run lives at BENCH_engine.json. Exit code 1 if
// the batched engine falls below the 3x speedup floor docs/execution.md
// documents, or if replay rounds disagree on a tier count, a match count,
// a statistics digest, a cold-arm count or a GEQO count or plan digest.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "bench_common.h"
#include "datagen/tpch_generator.h"
#include "fuzz/scalar_oracle.h"
#include "lqo/bao.h"
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
/// every base relation and materialize every connected 2-alias join. Run
/// over a fresh replica's context, with an oracle that has no memo and an
/// empty base cache, so each distinct filtered base is scanned once per
/// pass and each join runs its kernels; the returned row count (identical
/// for both oracles, by the byte-identity contract) is the throughput
/// numerator.
int64_t OracleSweep(exec::Oracle& oracle,
                    const std::vector<query::Query>& workload) {
  int64_t rows = 0;
  for (const query::Query& q : workload) {
    for (query::AliasId a = 0; a < q.relation_count(); ++a) {
      rows += static_cast<int64_t>(oracle.FilteredRows(q, a).size());
    }
    for (query::AliasId a = 0; a < q.relation_count(); ++a) {
      for (query::AliasId b = static_cast<query::AliasId>(a + 1);
           b < q.relation_count(); ++b) {
        const query::AliasMask mask = query::MaskOf(a) | query::MaskOf(b);
        if (!q.IsConnected(mask)) continue;
        const auto card = oracle.TrueJoinRows(q, mask);
        if (!card.overflow) rows += card.rows;
      }
    }
    oracle.ReleaseMaterializations();
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

struct JobLiteCharges {
  /// Every page key the executor charges, in order.
  std::vector<uint64_t> pages;
  /// Every (table, touches) index-NLJ heap charge, in order.
  std::vector<exec::Executor::HeapCharge> heap_charges;
};

/// The page keys and heap charges the executor makes on the JOB-lite
/// workload, recorded the way bench/layer_profile's `job` runs it: a cold
/// pool, each query planned once and executed three times with no cache
/// drops in between.
JobLiteCharges RecordJobLiteCharges(engine::Database* db) {
  const std::vector<query::Query> workload =
      query::LoadWorkload("job", db->schema());
  JobLiteCharges charges;
  db->context().buffer_pool->RecordAccesses(&charges.pages);
  db->executor().RecordHeapCharges(&charges.heap_charges);
  for (const query::Query& q : workload) {
    const auto planned = db->PlanQuery(q);
    for (int run = 0; run < 3; ++run) db->ExecutePlan(q, planned.plan);
  }
  db->context().buffer_pool->RecordAccesses(nullptr);
  db->executor().RecordHeapCharges(nullptr);
  return charges;
}

struct HeapChargeResult {
  int64_t calls = 0;
  int64_t accesses = 0;  // sampled touches: min(touches, kMaxPageLoop) each
  int64_t shared_hits = 0;
  int64_t os_hits = 0;
  int64_t disk_reads = 0;
  double ns_per_touch = 0.0;  // best (min) round, per access
  bool deterministic = true;  // every round saw the same tier counts
};

/// Replays the recorded heap charges through Executor::ChargeRandomHeapPages
/// (the code index-NLJ joins call) on a fresh replica of `db` (a cold pool
/// of the database's configuration, cloned outside the timer) kRounds times
/// and keeps the fastest round (min-of-N, as in EngineComparison).
HeapChargeResult HeapChargeReplay(
    engine::Database* db,
    const std::vector<exec::Executor::HeapCharge>& charges) {
  constexpr int kRounds = 7;
  HeapChargeResult result;
  result.calls = static_cast<int64_t>(charges.size());
  for (int round = 0; round < kRounds; ++round) {
    const auto replica = db->CloneContextForWorker();
    exec::Executor& executor = replica->executor();
    const storage::BufferPool& pool = *replica->context().buffer_pool;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& [table, touches] : charges) {
      benchmark::DoNotOptimize(executor.ChargeRandomHeapPages(table, touches));
    }
    const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
    const int64_t counts[] = {pool.shared_hits(), pool.os_hits(),
                              pool.disk_reads()};
    const int64_t accesses = counts[0] + counts[1] + counts[2];
    const double ns = elapsed_ns / static_cast<double>(accesses);
    if (round == 0) {
      result.accesses = accesses;
      result.shared_hits = counts[0];
      result.os_hits = counts[1];
      result.disk_reads = counts[2];
      result.ns_per_touch = ns;
    } else {
      result.deterministic &= counts[0] == result.shared_hits &&
                              counts[1] == result.os_hits &&
                              counts[2] == result.disk_reads;
      result.ns_per_touch = std::min(result.ns_per_touch, ns);
    }
  }
  std::fprintf(stderr,
               "heap charge replay: %lld calls, %lld accesses, best round "
               "%.1f ns/touch\n",
               static_cast<long long>(result.calls),
               static_cast<long long>(result.accesses), result.ns_per_touch);
  return result;
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

struct AnalyzeResult {
  const char* schema = "";
  int64_t columns = 0;
  int64_t values = 0;         // rows summed over columns
  uint64_t digest = 0;        // FNV-1a over every ColumnStats field
  double ms = 0.0;            // best (min) round
  bool deterministic = true;  // every round produced the same digest
};

/// FNV-1a over the bytes of `value`, folded into `digest`.
template <typename T>
void FnvAdd(uint64_t* digest, const T& value) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
  for (size_t i = 0; i < sizeof(T); ++i) {
    *digest = (*digest ^ bytes[i]) * 1099511628211ull;
  }
}

uint64_t StatsDigest(const std::vector<stats::TableStats>& tables) {
  uint64_t digest = 1469598103934665603ull;
  for (const stats::TableStats& table : tables) {
    for (const stats::ColumnStats& cs : table.columns) {
      FnvAdd(&digest, cs.row_count);
      FnvAdd(&digest, cs.null_count);
      FnvAdd(&digest, cs.n_distinct);
      FnvAdd(&digest, cs.min_value);
      FnvAdd(&digest, cs.max_value);
      FnvAdd(&digest, cs.mcv_values.size());
      for (size_t i = 0; i < cs.mcv_values.size(); ++i) {
        FnvAdd(&digest, cs.mcv_values[i]);
        FnvAdd(&digest, cs.mcv_freqs[i]);
      }
      FnvAdd(&digest, cs.histogram_bounds.size());
      for (const storage::Value bound : cs.histogram_bounds) {
        FnvAdd(&digest, bound);
      }
      FnvAdd(&digest, cs.histogram_fraction);
    }
  }
  return digest;
}

/// Runs stats::Analyze over every table of one database build, as
/// Database::FinishBuild does, kRounds times and keeps the fastest round
/// (min-of-N, as in EngineComparison).
AnalyzeResult AnalyzeReplay(const char* schema,
                            const std::vector<const storage::Table*>& tables) {
  constexpr int kRounds = 7;
  AnalyzeResult result;
  result.schema = schema;
  for (const storage::Table* table : tables) {
    result.columns += table->column_count();
    result.values += table->column_count() * table->row_count();
  }
  for (int round = 0; round < kRounds; ++round) {
    std::vector<stats::TableStats> stats;
    stats.reserve(tables.size());
    const auto t0 = std::chrono::steady_clock::now();
    for (const storage::Table* table : tables) {
      stats.push_back(stats::Analyze(*table));
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const uint64_t digest = StatsDigest(stats);
    if (round == 0) {
      result.digest = digest;
      result.ms = ms;
    } else {
      result.deterministic &= digest == result.digest;
      result.ms = std::min(result.ms, ms);
    }
  }
  std::fprintf(stderr,
               "analyze replay %s: %lld columns, %lld values, best round "
               "%.1f ms, digest %016llx\n",
               schema, static_cast<long long>(result.columns),
               static_cast<long long>(result.values), result.ms,
               static_cast<unsigned long long>(result.digest));
  return result;
}

/// Analyze replays over the two databases bench/layer_profile builds:
/// TPC-H-lite at 4x medium (`tpch`) and IMDB at the medium profile (`job`).
std::vector<AnalyzeResult> AnalyzeReplays(engine::Database* tpch_4x,
                                          engine::Database* medium_imdb) {
  std::vector<AnalyzeResult> results;
  for (const auto& [schema, db] :
       {std::pair{"tpch_lite_4x", tpch_4x},
        std::pair{"imdb_medium", medium_imdb}}) {
    std::vector<const storage::Table*> tables;
    for (catalog::TableId t = 0; t < db->schema().table_count(); ++t) {
      tables.push_back(&db->context().table(t));
    }
    results.push_back(AnalyzeReplay(schema, tables));
  }
  return results;
}

/// TPC-H-lite at 4x medium, the data bench/layer_profile's `tpch` runs on.
std::unique_ptr<engine::Database> CreateTpch4x() {
  engine::Database::Options options;
  options.seed = bench::kSeed;
  return engine::Database::CreateTpch(
      options, datagen::TpchScaleProfile::Medium().Scaled(4.0));
}

struct TpchColdResult {
  int64_t queries = 0;
  int64_t result_rows = 0;   // summed over queries
  int64_t execution_ns = 0;  // virtual, summed over queries
  int64_t hash_builds = 0;   // obs::Counter::kOracleHashBuilds per round
  int64_t bloom_builds = 0;  // obs::Counter::kOracleBloomBuilds per round
  double ms = 0.0;           // best (min) timed round
  bool deterministic = true;  // every round gave the same counts
};

/// One cold execution of every TPC-H-lite query, as the first of
/// bench/layer_profile's `tpch` executions: each query is planned once up
/// front, and each round runs every plan once through ExecutePlan on a
/// fresh replica of `db` (empty oracle memo and base cache, cold pool,
/// cloned outside the timer), whose time goes mostly to the oracle's
/// true-cardinality joins. An untimed warm-up round, then kRounds timed
/// rounds; the fastest is kept (min-of-N, as in EngineComparison).
TpchColdResult TpchColdReplay(engine::Database* db) {
  constexpr int kRounds = 5;
  const std::vector<query::Query> workload =
      query::LoadWorkload("tpch", db->schema());
  std::vector<engine::Database::Planned> plans;
  for (const query::Query& q : workload) plans.push_back(db->PlanQuery(q));
  TpchColdResult result;
  result.queries = static_cast<int64_t>(workload.size());
  for (int round = 0; round <= kRounds; ++round) {
    const auto replica = db->CloneContextForWorker();
    obs::MetricsRegistry metrics;
    int64_t rows = 0;
    int64_t execution_ns = 0;
    const auto t0 = std::chrono::steady_clock::now();
    {
      obs::MetricsScope scope(&metrics);
      for (size_t i = 0; i < workload.size(); ++i) {
        const auto executed = replica->ExecutePlan(workload[i], plans[i].plan);
        rows += executed.result_rows;
        execution_ns += executed.execution_ns;
      }
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const int64_t hash_builds = metrics.Get(obs::Counter::kOracleHashBuilds);
    const int64_t bloom_builds = metrics.Get(obs::Counter::kOracleBloomBuilds);
    if (round == 0) {
      result.result_rows = rows;
      result.execution_ns = execution_ns;
      result.hash_builds = hash_builds;
      result.bloom_builds = bloom_builds;
      continue;
    }
    result.deterministic &= rows == result.result_rows &&
                            execution_ns == result.execution_ns &&
                            hash_builds == result.hash_builds &&
                            bloom_builds == result.bloom_builds;
    if (round == 1 || ms < result.ms) result.ms = ms;
  }
  std::fprintf(stderr,
               "tpch cold replay: %lld queries, %lld result rows, %lld hash "
               "builds, %lld bloom builds, best round %.1f ms\n",
               static_cast<long long>(result.queries),
               static_cast<long long>(result.result_rows),
               static_cast<long long>(result.hash_builds),
               static_cast<long long>(result.bloom_builds), result.ms);
  return result;
}

struct GeqoResult {
  int64_t queries = 0;        // JOB-lite queries at or past geqo_threshold
  int64_t planner_calls = 0;  // per round: queries x hint sets
  int64_t planner_steps = 0;  // summed PlanningResult::planner_steps
  int64_t plans_costed = 0;   // obs::Counter::kPlannerGeqoPlansCosted
  uint64_t digest = 0;        // FNV-1a over every plan, cost and step count
  double ms = 0.0;            // best (min) timed round
  bool deterministic = true;  // every round gave the same counts and digest
};

/// GEQO planning as Bao's inference does it: every JOB-lite query with at
/// least geqo_threshold relations is planned under each of
/// lqo::DefaultHintSets() (the enable_* overlays on the database's
/// configuration). Each round plans on a fresh replica, cloned outside the
/// timer; kRounds timed rounds, the fastest kept (min-of-N, as in
/// EngineComparison).
GeqoResult GeqoReplay(engine::Database* db) {
  constexpr int kRounds = 5;
  const engine::DbConfig base = db->config();
  std::vector<query::Query> workload;
  for (query::Query& q : query::LoadWorkload("job", db->schema())) {
    if (q.relation_count() >= base.geqo_threshold) {
      workload.push_back(std::move(q));
    }
  }
  std::vector<engine::DbConfig> configs;
  for (const lqo::HintSet& hints : lqo::DefaultHintSets()) {
    configs.push_back(lqo::ApplyHintSet(base, hints));
  }
  GeqoResult result;
  result.queries = static_cast<int64_t>(workload.size());
  for (int round = 0; round < kRounds; ++round) {
    const auto replica = db->CloneContextForWorker();
    obs::MetricsRegistry metrics;
    int64_t calls = 0;
    int64_t steps = 0;
    uint64_t digest = 1469598103934665603ull;
    const auto t0 = std::chrono::steady_clock::now();
    {
      obs::MetricsScope scope(&metrics);
      for (const engine::DbConfig& config : configs) {
        replica->SetConfig(config);
        for (const query::Query& q : workload) {
          const optimizer::PlanningResult r = replica->planner().Plan(q);
          ++calls;
          steps += r.planner_steps;
          for (const char c : r.plan.ToString(q)) FnvAdd(&digest, c);
          FnvAdd(&digest, r.estimated_cost);
          FnvAdd(&digest, r.planner_steps);
        }
      }
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const int64_t costed = metrics.Get(obs::Counter::kPlannerGeqoPlansCosted);
    if (round == 0) {
      result.planner_calls = calls;
      result.planner_steps = steps;
      result.plans_costed = costed;
      result.digest = digest;
      result.ms = ms;
      continue;
    }
    result.deterministic &= calls == result.planner_calls &&
                            steps == result.planner_steps &&
                            costed == result.plans_costed &&
                            digest == result.digest;
    result.ms = std::min(result.ms, ms);
  }
  std::fprintf(stderr,
               "geqo replay: %lld queries, %lld planner calls, %lld steps, "
               "%lld plans costed, digest %016llx, best round %.1f ms\n",
               static_cast<long long>(result.queries),
               static_cast<long long>(result.planner_calls),
               static_cast<long long>(result.planner_steps),
               static_cast<long long>(result.plans_costed),
               static_cast<unsigned long long>(result.digest), result.ms);
  return result;
}

int EngineComparison(const char* path) {
  struct Result {
    const char* name;
    int64_t rows = 0;       // rows produced by one sweep round
    double wall_ms = 0.0;   // best (min) round wall time
    double rows_per_sec = 0.0;
    // Per round: filtered-base requests, and the distinct bases scanned.
    int64_t base_requests = 0;
    int64_t base_fills = 0;
  };
  // [0]: the tuple-at-a-time reference, fuzz::ScalarOracle, built over the
  // replica's context; [1]: the replica's own batched oracle.
  Result results[] = {{"scalar"}, {"vectorized"}};
  constexpr int kRounds = 5;

  // Round 0 is an untimed warm-up (page first-touch of the shared columns),
  // which also counts the base cache's requests and fills; rounds 1..kRounds
  // are timed separately and the best round is reported: min-of-N is robust
  // to scheduler interference, which only ever slows a round down. The two
  // oracles alternate within each round, so both minima see the same host
  // load. Every round runs on a fresh replica, cloned outside the timer, so
  // no round finds the bases or build tables of an earlier one.
  for (int round = 0; round <= kRounds; ++round) {
    for (size_t i = 0; i < std::size(results); ++i) {
      Result& result = results[i];
      const auto replica = SharedDb()->CloneContextForWorker();
      fuzz::ScalarOracle reference(&replica->context());
      exec::Oracle& oracle = i == 0 ? reference : replica->oracle();
      if (round == 0) {
        obs::MetricsRegistry metrics;
        obs::MetricsScope scope(&metrics);
        OracleSweep(oracle, SharedWorkload());
        result.base_fills = oracle.cached_bases();
        result.base_requests =
            result.base_fills + metrics.Get(obs::Counter::kOracleBaseReuses);
        continue;
      }
      const auto t0 = std::chrono::steady_clock::now();
      result.rows = OracleSweep(oracle, SharedWorkload());
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (round == 1 || ms < result.wall_ms) result.wall_ms = ms;
    }
  }
  for (Result& result : results) {
    result.rows_per_sec = 1000.0 * static_cast<double>(result.rows) /
                          result.wall_ms;
    std::fprintf(stderr,
                 "%s: %lld rows/round, best round %.1f ms (%.3g rows/s), "
                 "%lld base requests over %lld distinct bases\n",
                 result.name, static_cast<long long>(result.rows),
                 result.wall_ms, result.rows_per_sec,
                 static_cast<long long>(result.base_requests),
                 static_cast<long long>(result.base_fills));
  }

  const std::unique_ptr<engine::Database> medium = CreateMediumImdb();
  const GeqoResult geqo = GeqoReplay(medium.get());
  const JobLiteCharges charges = RecordJobLiteCharges(medium.get());
  const ReplayResult replays[] = {
      BufferReplay(charges.pages, "no_fill", 131072, 262144),
      BufferReplay(charges.pages, "both_evict", 512, 4096)};
  const HeapChargeResult heap_charge =
      HeapChargeReplay(medium.get(), charges.heap_charges);
  const IndexProbeResult index_probe = IndexProbeReplay(medium.get());
  const std::unique_ptr<engine::Database> tpch = CreateTpch4x();
  const std::vector<AnalyzeResult> analyzes =
      AnalyzeReplays(tpch.get(), medium.get());
  const TpchColdResult tpch_cold = TpchColdReplay(tpch.get());

  const double speedup_vectorized =
      results[1].rows_per_sec / results[0].rows_per_sec;

  std::string json = "{\n";
  json += "  \"bench\": \"micro_engine\",\n";
  json += "  \"seed\": " + std::to_string(bench::kSeed) + ",\n";
  char buffer[256];
  json += "  \"configs\": [\n";
  for (size_t i = 0; i < std::size(results); ++i) {
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"config\": \"%s\", \"rows\": %lld, "
                  "\"wall_ms\": %.1f, \"rows_per_sec\": %.1f, "
                  "\"base_requests\": %lld, \"base_fills\": %lld}%s\n",
                  results[i].name, static_cast<long long>(results[i].rows),
                  results[i].wall_ms, results[i].rows_per_sec,
                  static_cast<long long>(results[i].base_requests),
                  static_cast<long long>(results[i].base_fills),
                  i + 1 < std::size(results) ? "," : "");
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
                "  \"heap_charge\": {\"calls\": %lld, \"accesses\": %lld, "
                "\"shared_hits\": %lld, \"os_hits\": %lld, "
                "\"disk_reads\": %lld, \"ns_per_touch\": %.1f},\n",
                static_cast<long long>(heap_charge.calls),
                static_cast<long long>(heap_charge.accesses),
                static_cast<long long>(heap_charge.shared_hits),
                static_cast<long long>(heap_charge.os_hits),
                static_cast<long long>(heap_charge.disk_reads),
                heap_charge.ns_per_touch);
  json += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "  \"index_probe\": {\"probes\": %lld, \"matched_rows\": %lld, "
                "\"ns_per_probe\": %.1f},\n",
                static_cast<long long>(index_probe.probes),
                static_cast<long long>(index_probe.matched_rows),
                index_probe.ns_per_probe);
  json += buffer;
  json += "  \"analyze\": [\n";
  bool analyzes_deterministic = true;
  for (size_t i = 0; i < analyzes.size(); ++i) {
    const AnalyzeResult& a = analyzes[i];
    analyzes_deterministic &= a.deterministic;
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"schema\": \"%s\", \"columns\": %lld, "
                  "\"values\": %lld, \"stats_digest\": \"%016llx\", "
                  "\"ms\": %.1f}%s\n",
                  a.schema, static_cast<long long>(a.columns),
                  static_cast<long long>(a.values),
                  static_cast<unsigned long long>(a.digest), a.ms,
                  i + 1 < analyzes.size() ? "," : "");
    json += buffer;
  }
  json += "  ],\n";
  std::snprintf(buffer, sizeof(buffer),
                "  \"tpch_cold\": {\"queries\": %lld, \"result_rows\": %lld, "
                "\"execution_ns\": %lld, \"hash_builds\": %lld, "
                "\"bloom_builds\": %lld, \"ms\": %.1f},\n",
                static_cast<long long>(tpch_cold.queries),
                static_cast<long long>(tpch_cold.result_rows),
                static_cast<long long>(tpch_cold.execution_ns),
                static_cast<long long>(tpch_cold.hash_builds),
                static_cast<long long>(tpch_cold.bloom_builds), tpch_cold.ms);
  json += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "  \"geqo\": {\"queries\": %lld, \"planner_calls\": %lld, "
                "\"planner_steps\": %lld, \"plans_costed\": %lld, "
                "\"plan_digest\": \"%016llx\", \"ms\": %.1f},\n",
                static_cast<long long>(geqo.queries),
                static_cast<long long>(geqo.planner_calls),
                static_cast<long long>(geqo.planner_steps),
                static_cast<long long>(geqo.plans_costed),
                static_cast<unsigned long long>(geqo.digest), geqo.ms);
  json += buffer;
  std::snprintf(buffer, sizeof(buffer), "  \"speedup_vectorized\": %.2f\n}\n",
                speedup_vectorized);
  json += buffer;

  if (!bench::WriteDocument(path, json)) return 1;
  return speedup_vectorized >= 3.0 && replays_deterministic &&
                 heap_charge.deterministic && index_probe.deterministic &&
                 analyzes_deterministic && tpch_cold.deterministic &&
                 geqo.deterministic
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
