// Differential test suite for the batched execution engine (ctest label
// `exec`): the vectorized oracle hot path must return byte-identical
// results to the tuple-at-a-time scalar reference — same FilteredRows /
// SinglePredicateRows / TrueJoinRows (including overflow flags) across all
// JOB-lite queries and the fuzz replay corpus. Whole-table bases, which the
// batched engine answers from the shared index instead of a hash build, get
// their own edge-case queries and counter checks. Plus
// property tests for the Bloom filter and the lazy predicate-transfer
// schedule, and a steady-state zero-allocation check for the kernels.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "exec/bloom.h"
#include "exec/kernels.h"
#include "exec/oracle.h"
#include "fuzz/corpus.h"
#include "obs/metrics.h"
#include "query/predicate_binding.h"
#include "query/sql_workload.h"
#include "util/check.h"
#include "util/rng.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator-new in this binary bumps the
// counter, so tests can assert that a warmed kernel pipeline performs zero
// heap allocations in steady state (satellite: no per-tuple heap memory).
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lqolab::exec {
namespace {

using query::AliasId;
using query::AliasMask;
using query::Query;
using storage::RowId;
using storage::Value;

// ---------------------------------------------------------------------------
// Differential A/B: scalar reference vs vectorized. Two separate Database
// instances over the same (profile, seed) hold the same physical data but
// run independent oracles, so agreement is a genuine recomputation check,
// not a memo hit.
// ---------------------------------------------------------------------------

struct EngineLab {
  std::unique_ptr<engine::Database> scalar;
  std::unique_ptr<engine::Database> vectorized;
  std::vector<Query> workload;
};

EngineLab* MakeLab(const datagen::ScaleProfile& profile =
                       datagen::ScaleProfile::Medium().Scaled(0.01)) {
  auto* l = new EngineLab;
  engine::Database::Options options;
  options.profile = profile;
  options.seed = 42;

  options.config.vectorized_exec = false;
  l->scalar = engine::Database::CreateImdb(options);

  options.config.vectorized_exec = true;
  l->vectorized = engine::Database::CreateImdb(options);

  l->workload = query::LoadWorkload("job", l->scalar->schema());
  return l;
}

/// The scalar and batched engines over identically seeded IMDB builds.
EngineLab& Lab() {
  static EngineLab* lab = MakeLab();
  return *lab;
}

/// Every connected mask the differential sweep compares: all single
/// aliases, all connected pairs, and the full query.
std::vector<AliasMask> DifferentialMasks(const Query& q) {
  std::vector<AliasMask> masks;
  const int32_t n = q.relation_count();
  for (AliasId a = 0; a < n; ++a) masks.push_back(query::MaskOf(a));
  for (AliasId a = 0; a < n; ++a) {
    for (AliasId b = static_cast<AliasId>(a + 1); b < n; ++b) {
      const AliasMask mask = query::MaskOf(a) | query::MaskOf(b);
      if (q.IsConnected(mask)) masks.push_back(mask);
    }
  }
  if (n > 2) masks.push_back(q.FullMask());
  return masks;
}

/// Runs the full byte-identity sweep for one query across the two engines:
/// filtered rows per alias, single-predicate rows per predicate, and join
/// cardinalities (rows AND overflow flag) per differential mask.
void CheckQueryAgreement(const Query& q, EngineLab& lab = Lab()) {
  Oracle& reference = lab.scalar->oracle();
  Oracle& batched = lab.vectorized->oracle();
  for (AliasId a = 0; a < q.relation_count(); ++a) {
    const std::vector<RowId>& want = reference.FilteredRows(q, a);
    const std::vector<RowId>& got = batched.FilteredRows(q, a);
    ASSERT_TRUE(got == want)
        << q.id << " alias " << static_cast<int>(a)
        << ": FilteredRows diverged (" << got.size() << " vs " << want.size()
        << " rows)";

    const size_t pred_count = reference.BoundPredicates(q, a).size();
    for (size_t p = 0; p < pred_count; ++p) {
      ASSERT_TRUE(batched.SinglePredicateRows(q, a, p) ==
                  reference.SinglePredicateRows(q, a, p))
          << q.id << " alias " << static_cast<int>(a) << " pred " << p
          << ": SinglePredicateRows diverged";
    }
  }

  for (const AliasMask mask : DifferentialMasks(q)) {
    const Oracle::CardResult want = reference.TrueJoinRows(q, mask);
    const Oracle::CardResult got = batched.TrueJoinRows(q, mask);
    ASSERT_EQ(got.rows, want.rows) << q.id << " mask " << mask;
    ASSERT_EQ(got.overflow, want.overflow)
        << q.id << " mask " << mask << ": overflow flag diverged";
  }
}

class AllQueriesDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(AllQueriesDifferential, VectorizedMatchesScalarByteForByte) {
  CheckQueryAgreement(Lab().workload[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(JobLite, AllQueriesDifferential,
                         ::testing::Range<size_t>(0, 113));

TEST(CorpusDifferential, ReplayCorpusMatchesScalar) {
  EngineLab& lab = Lab();
  const std::vector<std::string> paths =
      fuzz::ListCorpus(LQOLAB_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(paths.empty()) << "no corpus under " << LQOLAB_FUZZ_CORPUS_DIR;
  for (const std::string& path : paths) {
    Query q;
    const util::Status loaded =
        fuzz::LoadReproducer(path, lab.scalar->schema(), &q);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    CheckQueryAgreement(q);
  }
}

/// The overflow path must trip identically in both engines. Tree-shaped
/// queries never overflow (TreeCount computes them exactly without
/// materializing), so this builds a 4-cycle cast_info self-join on the
/// low-cardinality role_id column: every 3-alias sub-path explodes past
/// kMaxIntermediateRows (so no submask materialization exists to stream an
/// extension count from) and the cycle defeats TreeCount — each engine must
/// give up at exactly the same point and report overflow, while the
/// adjacent 2-alias subsets still materialize exactly.
TEST(OverflowDifferential, SelfJoinOverflowFlagsAgree) {
  EngineLab& lab = Lab();
  const catalog::Schema& schema = lab.scalar->schema();
  const catalog::TableId cast_info = schema.FindTable("cast_info");
  ASSERT_NE(cast_info, catalog::kInvalidTable);
  const catalog::ColumnId role_id =
      schema.table(cast_info).FindColumn("role_id");
  ASSERT_NE(role_id, catalog::kInvalidColumn);

  Query q;
  q.id = "kernels_overflow_cycle";
  q.relations = {{cast_info, "c1"},
                 {cast_info, "c2"},
                 {cast_info, "c3"},
                 {cast_info, "c4"}};
  q.edges = {{0, role_id, 1, role_id},
             {1, role_id, 2, role_id},
             {2, role_id, 3, role_id},
             {3, role_id, 0, role_id}};

  const Oracle::CardResult reference =
      lab.scalar->oracle().TrueJoinRows(q, q.FullMask());
  const Oracle::CardResult got =
      lab.vectorized->oracle().TrueJoinRows(q, q.FullMask());
  EXPECT_EQ(got.rows, reference.rows);
  EXPECT_EQ(got.overflow, reference.overflow);
  // Pin the shape so the test genuinely covers the overflow branch: the
  // triple explodes past the intermediate caps, the pair stays exact.
  EXPECT_TRUE(reference.overflow);
  const Oracle::CardResult pair =
      lab.scalar->oracle().TrueJoinRows(q, query::MaskOf(0) | query::MaskOf(1));
  EXPECT_FALSE(pair.overflow);
  EXPECT_GT(pair.rows, 0);
}

// ---------------------------------------------------------------------------
// Whole-table bases: the batched engine probes the shared storage::Index
// instead of building a hash table over every row. Each query below puts
// an unfiltered relation on the build side of some join, on an indexed
// column, in a shape where a wrong or incomplete group would change a
// count.
// ---------------------------------------------------------------------------

constexpr const char* kWholeTableSql = R"sql(
-- nullable_fk_base
SELECT COUNT(*) FROM char_name AS chn, cast_info AS ci
WHERE ci.person_role_id = chn.id AND chn.id < 40;
-- nullable_fk_probe
SELECT COUNT(*) FROM cast_info AS ci, char_name AS chn
WHERE ci.person_role_id = chn.id AND ci.nr_order < 2;
-- many_rows_per_key
SELECT COUNT(*) FROM title AS t, movie_info AS mi
WHERE t.id = mi.movie_id AND t.production_year > 2005;
-- residual_edge_cycle
SELECT COUNT(*) FROM title AS t, movie_info AS mi, movie_info_idx AS mii
WHERE t.id = mi.movie_id AND t.id = mii.movie_id
AND mi.info_type_id = mii.info_type_id AND t.production_year > 2005;
-- nullable_fk_chain
SELECT COUNT(*) FROM title AS t, cast_info AS ci, char_name AS chn
WHERE t.id = ci.movie_id AND ci.person_role_id = chn.id
AND t.production_year > 2008;
)sql";

std::vector<Query> WholeTableQueries(const catalog::Schema& schema) {
  std::vector<Query> queries;
  const util::Status status = query::LoadSqlWorkloadText(
      kWholeTableSql, "whole_table", schema, &queries);
  LQOLAB_CHECK_MSG(status.ok(), status.ToString());
  return queries;
}

TEST(WholeTableDifferential, IndexProbesMatchScalar) {
  EngineLab& lab = Lab();
  const catalog::Schema& schema = lab.scalar->schema();
  const catalog::TableId cast_info = schema.FindTable("cast_info");
  const storage::Column& person_role_id = lab.scalar->context()
      .table(cast_info)
      .column(schema.table(cast_info).FindColumn("person_role_id"));
  int64_t nulls = 0;
  for (int64_t r = 0; r < person_role_id.size(); ++r) {
    nulls += person_role_id.at(r) == storage::kNullValue ? 1 : 0;
  }
  // The nullable-FK queries only test NULL skipping if there are NULLs.
  EXPECT_GT(nulls * 5, person_role_id.size());

  for (const Query& q : WholeTableQueries(schema)) {
    obs::MetricsRegistry metrics;
    {
      obs::MetricsScope scope(&metrics);
      CheckQueryAgreement(q, lab);
    }
    // The batched engine took the index path for this query at least
    // once, so agreement above covers it (the scalar engine never does).
    EXPECT_GT(metrics.Get(obs::Counter::kOracleIndexJoins), 0) << q.id;
  }
}

/// Cold workload passes (fresh database, caches dropped before each query)
/// count the oracle's index joins and hash builds per engine.
struct ColdPassCounts {
  int64_t index_joins = 0;
  int64_t hash_builds = 0;
};

ColdPassCounts ColdPass(engine::Database& db, const std::string& workload) {
  obs::MetricsRegistry metrics;
  {
    obs::MetricsScope scope(&metrics);
    for (const Query& q : query::LoadWorkload(workload, db.schema())) {
      db.DropCaches();
      const engine::QueryRun run = db.Run(q);
      EXPECT_TRUE(run.status.ok()) << q.id << ": " << run.status.message();
    }
  }
  return {metrics.Get(obs::Counter::kOracleIndexJoins),
          metrics.Get(obs::Counter::kOracleHashBuilds)};
}

engine::Database::Options ColdPassOptions(bool vectorized_exec) {
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Medium().Scaled(0.01);
  options.seed = 42;
  options.config.vectorized_exec = vectorized_exec;
  return options;
}

/// Without this, a silent fall-back to the build path would still pass
/// every identity test above.
TEST(IndexJoinCounters, BatchedEngineProbesSharedIndexes) {
  const engine::Database::Options options = ColdPassOptions(true);
  auto imdb = engine::Database::CreateImdb(options);
  const ColdPassCounts job = ColdPass(*imdb, "job");
  EXPECT_GT(job.index_joins, 0);
  EXPECT_GT(job.hash_builds, 0);  // filtered bases still build

  auto tpch = engine::Database::CreateTpch(
      options, datagen::TpchScaleProfile::Small().Scaled(0.5));
  EXPECT_GT(ColdPass(*tpch, "tpch").index_joins, 0);
}

TEST(IndexJoinCounters, ScalarEngineRecordsNoIndexJoins) {
  auto imdb = engine::Database::CreateImdb(ColdPassOptions(false));
  const ColdPassCounts job = ColdPass(*imdb, "job");
  EXPECT_EQ(job.index_joins, 0);
  EXPECT_GT(job.hash_builds, 0);
}

// ---------------------------------------------------------------------------
// Kernel unit tests against the scalar predicate semantics.
// ---------------------------------------------------------------------------

std::vector<Value> SyntheticColumn(int64_t rows, uint64_t seed,
                                   int32_t domain, double null_fraction) {
  util::Rng rng(seed);
  std::vector<Value> column(static_cast<size_t>(rows));
  for (auto& v : column) {
    if (rng.Uniform() < null_fraction) {
      v = storage::kNullValue;
    } else {
      v = static_cast<Value>(rng.UniformInt(0, domain - 1));
    }
  }
  return column;
}

std::vector<RowId> BruteForceSelect(const std::vector<Value>& column,
                                    const query::BoundPredicate& pred) {
  std::vector<RowId> rows;
  for (size_t r = 0; r < column.size(); ++r) {
    if (pred.Matches(column[r])) rows.push_back(static_cast<RowId>(r));
  }
  return rows;
}

TEST(SelectionKernels, MatchScalarSemanticsAcrossKinds) {
  const auto column = SyntheticColumn(10'000, 7, 500, 0.1);

  std::vector<query::BoundPredicate> preds;
  query::BoundPredicate eq;
  eq.kind = query::Predicate::Kind::kEq;
  eq.values = {123};
  preds.push_back(eq);

  query::BoundPredicate small_in;
  small_in.kind = query::Predicate::Kind::kIn;
  small_in.values = {3, 77, 123, 401};
  preds.push_back(small_in);

  query::BoundPredicate big_in;
  big_in.kind = query::Predicate::Kind::kIn;
  for (Value v = 0; v < 400; v += 13) big_in.values.push_back(v);
  preds.push_back(big_in);

  query::BoundPredicate range;
  range.kind = query::Predicate::Kind::kRange;
  range.lo = 100;
  range.hi = 299;
  preds.push_back(range);

  // Unbounded-below range: the batched kernel folds the null exclusion
  // into the lower bound; INT32_MIN is exactly the null sentinel.
  query::BoundPredicate open_range;
  open_range.kind = query::Predicate::Kind::kRange;
  open_range.lo = INT32_MIN;
  open_range.hi = 250;
  preds.push_back(open_range);

  query::BoundPredicate isnull;
  isnull.kind = query::Predicate::Kind::kIsNull;
  preds.push_back(isnull);

  query::BoundPredicate notnull;
  notnull.kind = query::Predicate::Kind::kNotNull;
  preds.push_back(notnull);

  query::BoundPredicate empty_in;
  empty_in.kind = query::Predicate::Kind::kIn;
  preds.push_back(empty_in);

  for (size_t i = 0; i < preds.size(); ++i) {
    const std::vector<RowId> expected = BruteForceSelect(column, preds[i]);
    std::vector<RowId> got;
    kernels::SelectPredicate(column.data(),
                             static_cast<int64_t>(column.size()), preds[i],
                             &got);
    EXPECT_TRUE(got == expected) << "predicate " << i;

    // Refine from the all-rows vector must land on the same set.
    std::vector<RowId> refined;
    kernels::SelectAll(static_cast<int64_t>(column.size()), &refined);
    kernels::RefinePredicate(column.data(), preds[i], &refined);
    EXPECT_TRUE(refined == expected) << "predicate " << i;
  }
}

TEST(JoinHashTableKernel, ProbeReplaysReferenceInsertionOrder) {
  const auto column = SyntheticColumn(20'000, 11, 300, 0.05);
  std::vector<RowId> rows;
  kernels::SelectAll(static_cast<int64_t>(column.size()), &rows);

  kernels::JoinHashTable table;
  table.Build(column.data(), rows.data(), static_cast<int64_t>(rows.size()));

  // Reference: the scalar path's per-key vectors.
  std::unordered_map<Value, std::vector<RowId>> reference;
  for (const RowId r : rows) {
    const Value v = column[static_cast<size_t>(r)];
    if (v != storage::kNullValue) reference[v].push_back(r);
  }

  int64_t groups = 0;
  for (const auto& [key, expected] : reference) {
    const kernels::JoinHashTable::Group group = table.Probe(key);
    ASSERT_EQ(group.count, static_cast<int32_t>(expected.size())) << key;
    for (int32_t i = 0; i < group.count; ++i) {
      ASSERT_EQ(group.rows[i], expected[static_cast<size_t>(i)])
          << "key " << key << " position " << i;
    }
    ++groups;
  }
  EXPECT_EQ(table.distinct(), groups);
  EXPECT_EQ(table.Probe(-7).count, 0);  // absent key
}

// ---------------------------------------------------------------------------
// Bloom filter property tests.
// ---------------------------------------------------------------------------

TEST(BloomFilter, ZeroFalseNegativesByConstruction) {
  for (const uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    BloomFilter bloom(5'000, 0.01, seed);
    util::Rng rng(seed + 1);
    std::vector<Value> keys;
    for (int i = 0; i < 5'000; ++i) {
      keys.push_back(static_cast<Value>(rng.UniformInt(-1'000'000'000,
                                                       1'000'000'000)));
      bloom.Add(keys.back());
    }
    for (const Value key : keys) {
      ASSERT_TRUE(bloom.MayContain(key)) << "seed " << seed;
    }
  }
}

TEST(BloomFilter, MeasuredFprWithinTwiceTarget) {
  constexpr double kTargetFpr = 0.01;
  constexpr int kKeys = 20'000;
  constexpr int kProbes = 200'000;
  for (const uint64_t seed : {7ull, 99ull, 1234ull, 0xabcdefull}) {
    BloomFilter bloom(kKeys, kTargetFpr, seed);
    // Insert even keys, probe odd keys: disjoint by construction.
    for (Value k = 0; k < 2 * kKeys; k += 2) bloom.Add(k);
    int64_t false_positives = 0;
    for (Value probe = 1; probe < 2 * kProbes; probe += 2) {
      if (bloom.MayContain(probe)) ++false_positives;
    }
    const double fpr =
        static_cast<double>(false_positives) / static_cast<double>(kProbes);
    EXPECT_LE(fpr, 2.0 * kTargetFpr) << "seed " << seed;
  }
}

TEST(BloomFilter, DeterministicBitsPerSeed) {
  auto build = [](uint64_t seed) {
    BloomFilter bloom(1'000, 0.02, seed);
    for (Value k = 0; k < 1'000; ++k) bloom.Add(k * 3);
    return bloom;
  };
  const BloomFilter a = build(42);
  const BloomFilter b = build(42);
  const BloomFilter c = build(43);
  EXPECT_TRUE(a.BitsEqual(b));
  EXPECT_FALSE(a.BitsEqual(c)) << "different seeds must scatter differently";
}

// ---------------------------------------------------------------------------
// Lazy predicate-transfer schedule (kernels::BloomSchedule): the refine
// kernel must equal a straight-line exact refine whether or not its filter
// fires, and must build the filter exactly when at least 7/8 of the first
// kBloomSampleProbes non-null probe keys missed.
// ---------------------------------------------------------------------------

constexpr Value kSetKeys = 1'000;  // the set holds keys [0, kSetKeys)

enum class Probe { kHit, kMiss, kNull };

/// Appends `n` probe keys of one kind to `column`.
void Append(std::vector<Value>* column, Probe kind, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const Value k = static_cast<Value>(column->size()) % kSetKeys;
    column->push_back(kind == Probe::kHit    ? k
                      : kind == Probe::kMiss ? kSetKeys + k
                                             : storage::kNullValue);
  }
}

/// Refines every row of `column` against the set [0, kSetKeys), checks the
/// result against a straight-line exact refine, and returns how many Bloom
/// filters the kernel built.
int64_t RefineAndCountBuilds(const std::vector<Value>& column) {
  std::vector<Value> keys(static_cast<size_t>(kSetKeys));
  for (Value k = 0; k < kSetKeys; ++k) keys[static_cast<size_t>(k)] = k;
  std::vector<RowId> key_rows;
  kernels::SelectAll(kSetKeys, &key_rows);
  kernels::ValueSet set;
  set.Build(keys.data(), key_rows.data(), kSetKeys);

  std::vector<RowId> rows;
  kernels::SelectAll(static_cast<int64_t>(column.size()), &rows);
  std::vector<RowId> want;
  for (const RowId r : rows) {
    const Value v = column[static_cast<size_t>(r)];
    if (v != storage::kNullValue && set.Contains(v)) want.push_back(r);
  }

  BloomFilter bloom;
  obs::MetricsRegistry metrics;
  {
    obs::MetricsScope scope(&metrics);
    kernels::RefineBySet(column.data(), set, &bloom, &rows);
  }
  EXPECT_TRUE(rows == want) << "refine diverged from the exact refine";
  return metrics.Get(obs::Counter::kOracleBloomBuilds);
}

constexpr int64_t kSample = kernels::kBloomSampleProbes;
constexpr int64_t kMissBar =
    kSample * kernels::kBloomBuildMissNum / kernels::kBloomBuildMissDen;

TEST(TransferSchedule, StreamShorterThanSampleNeverBuilds) {
  std::vector<Value> column;
  Append(&column, Probe::kMiss, kSample - 1);
  EXPECT_EQ(RefineAndCountBuilds(column), 0);
}

TEST(TransferSchedule, HitHeavyStreamNeverBuilds) {
  std::vector<Value> column;
  for (int64_t i = 0; i < 2 * kSample; ++i) {
    Append(&column, Probe::kHit, 3);
    Append(&column, Probe::kMiss, 1);
  }
  EXPECT_EQ(RefineAndCountBuilds(column), 0);
}

TEST(TransferSchedule, SampleJustUnderMissBarNeverBuilds) {
  std::vector<Value> column;
  Append(&column, Probe::kMiss, kMissBar - 1);
  Append(&column, Probe::kHit, kSample - kMissBar + 1);
  // Everything after the sample misses: only the sample decides.
  Append(&column, Probe::kMiss, 4 * kSample);
  EXPECT_EQ(RefineAndCountBuilds(column), 0);
}

TEST(TransferSchedule, MissHeavySampleBuildsAtItsLastProbe) {
  std::vector<Value> column;
  Append(&column, Probe::kHit, kSample - kMissBar);
  Append(&column, Probe::kMiss, kMissBar);
  // Everything after the sample hits, interleaved with misses and NULLs
  // that the filter must reject without losing a hit.
  for (int64_t i = 0; i < kSample; ++i) {
    Append(&column, Probe::kHit, 3);
    Append(&column, Probe::kMiss, 1);
    Append(&column, Probe::kNull, 1);
  }
  EXPECT_EQ(RefineAndCountBuilds(column), 1);
}

TEST(TransferSchedule, NullsDoNotCountTowardTheSample) {
  // Half of the first 2 * kSample rows are NULL and every non-null key
  // misses: the sample is the first kSample NON-NULL keys, all misses.
  std::vector<Value> column;
  for (int64_t i = 0; i < kSample; ++i) {
    Append(&column, Probe::kNull, 1);
    Append(&column, Probe::kMiss, 1);
  }
  Append(&column, Probe::kHit, kSample);
  Append(&column, Probe::kMiss, kSample);
  EXPECT_EQ(RefineAndCountBuilds(column), 1);
}

/// The smallest IMDB profile (scale factors 0.01, 0.02, 0.025, 0.03
/// tried) on which the JOB-lite differential sweep builds Bloom filters.
EngineLab& TransferLab() {
  static EngineLab* lab =
      MakeLab(datagen::ScaleProfile::Medium().Scaled(0.03));
  return *lab;
}

TEST(TransferSchedule, JobLiteSweepBuildsFiltersAndMatchesScalar) {
  EngineLab& lab = TransferLab();
  obs::MetricsRegistry metrics;
  {
    obs::MetricsScope scope(&metrics);
    for (const Query& q : lab.workload) CheckQueryAgreement(q, lab);
  }
  EXPECT_GT(metrics.Get(obs::Counter::kOracleBloomBuilds), 0);
}

/// Extends a materialized cast_info self-join (thousands of rows) by a
/// movie_info base filtered to a few movies, so nearly every probe of the
/// join loop misses and its schedule builds a filter mid-stream.
TEST(TransferSchedule, JoinLoopFilterMatchesScalar) {
  EngineLab& lab = TransferLab();
  std::vector<Query> queries;
  const util::Status status = query::LoadSqlWorkloadText(
      R"sql(
-- join_loop_transfer
SELECT COUNT(*) FROM movie_info AS mi, cast_info AS c1, cast_info AS c2
WHERE c1.role_id = c2.role_id AND c1.movie_id = mi.movie_id
AND mi.movie_id < 20;
)sql",
      "join_loop_transfer", lab.scalar->schema(), &queries);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const Query& q = queries[0];
  const AliasMask self_join = query::MaskOf(1) | query::MaskOf(2);
  Oracle& reference = lab.scalar->oracle();
  Oracle& batched = lab.vectorized->oracle();

  // Materialize the self-join first, so the full query extends it through
  // the join loop alone (no semi-join reduction).
  const Oracle::CardResult pair = batched.TrueJoinRows(q, self_join);
  ASSERT_FALSE(pair.overflow);
  ASSERT_GE(pair.rows, 4 * kernels::kBloomSampleProbes);
  EXPECT_EQ(pair.rows, reference.TrueJoinRows(q, self_join).rows);

  obs::MetricsRegistry metrics;
  Oracle::CardResult got;
  {
    obs::MetricsScope scope(&metrics);
    got = batched.TrueJoinRows(q, q.FullMask());
  }
  EXPECT_EQ(metrics.Get(obs::Counter::kOracleBloomBuilds), 1);
  const Oracle::CardResult want = reference.TrueJoinRows(q, q.FullMask());
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.overflow, want.overflow);
  EXPECT_GT(got.rows, 0);
}

// ---------------------------------------------------------------------------
// Steady-state allocation discipline: once the scratch structures are
// warmed, a full kernel pipeline over 200k rows must perform ZERO heap
// allocations — the batch engine's no-per-tuple-memory contract.
// ---------------------------------------------------------------------------

TEST(VectorizedSteadyState, WarmedKernelsAllocateNothing) {
  const int64_t kRows = 200'000;
  const auto column = SyntheticColumn(kRows, 3, 4'000, 0.05);
  std::vector<RowId> all_rows;
  kernels::SelectAll(kRows, &all_rows);

  query::BoundPredicate range;
  range.kind = query::Predicate::Kind::kRange;
  range.lo = 0;
  range.hi = 3'200;

  // The set holds under 1/10 of the selected key range, so the refine
  // misses often enough that its Bloom schedule fires every round.
  query::BoundPredicate low;
  low.kind = query::Predicate::Kind::kRange;
  low.lo = 0;
  low.hi = 299;

  std::vector<RowId> set_rows;
  std::vector<RowId> selected;
  kernels::ValueSet set;
  kernels::JoinHashTable table;
  BloomFilter bloom;

  auto pipeline = [&]() -> int64_t {
    set_rows.clear();
    kernels::SelectPredicate(column.data(), kRows, low, &set_rows);
    selected.clear();
    kernels::SelectPredicate(column.data(), kRows, range, &selected);
    set.Build(column.data(), set_rows.data(),
              static_cast<int64_t>(set_rows.size()));
    kernels::RefineBySet(column.data(), set, &bloom, &selected);
    table.Build(column.data(), selected.data(),
                static_cast<int64_t>(selected.size()));
    int64_t pairs = 0;
    for (const RowId r : all_rows) {
      const Value v = column[static_cast<size_t>(r)];
      if (v == storage::kNullValue) continue;
      pairs += table.Probe(v).count;
    }
    return pairs;
  };

  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  const int64_t warm = pipeline();
  ASSERT_GT(warm, 0);
  ASSERT_EQ(metrics.Get(obs::Counter::kOracleBloomBuilds), 1);

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const int64_t steady = pipeline();
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(steady, warm);
  EXPECT_EQ(after - before, 0u)
      << "warmed kernel pipeline must not touch the heap";
}

}  // namespace
}  // namespace lqolab::exec
