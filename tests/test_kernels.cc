// Differential test suite for the batched execution engine (ctest label
// `exec`): a database's exec::Oracle must agree with fuzz::ScalarOracle,
// the tuple-at-a-time reference, over the same context — byte-identical
// FilteredRows / SinglePredicateRows, and TrueJoinRows equal by count and
// overflow flag — across all JOB-lite queries and the fuzz replay corpus.
// The product's intermediates are weighted frontier tuples and the
// reference's full tuples, so joins are compared on answers, not row sets.
// The product decides its caps on what it stores and the reference on
// logical rows, so the OverflowDifferential cases (shapes shared with
// tests/answers/fallbacks.sql, all cast_info self-joins on role_id) check
// the contract between them against a closed-form count read straight
// from the column: where the reference counts, the product counts the
// same; where it overflows, the product counts the closed form or
// overflows. They pin each cap — stored rows, stored cells, visited pairs
// and a count past INT64_MAX — and WeightedIntermediates pins the rows and
// cells the product writes.
// Whole-table bases, which the batched oracle answers from the shared index
// instead of a hash build, get their own edge-case queries and counter
// checks. Plus
// reference checks of both build-side layouts (direct and open addressing)
// of the join table and the semi-join set, property tests for the Bloom
// filter and the lazy predicate-transfer schedule, and a steady-state
// zero-allocation check for the kernels.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "exec/bloom.h"
#include "exec/cost_constants.h"
#include "exec/kernels.h"
#include "exec/oracle.h"
#include "fuzz/corpus.h"
#include "fuzz/scalar_oracle.h"
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

// Kept out of line: once GCC inlines a replacement into its caller it sees
// std::malloc/std::free paired with operator new/delete there and warns
// -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
__attribute__((noinline)) void* operator new(std::size_t size,
                                             std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
__attribute__((noinline)) void* operator new[](std::size_t size,
                                               std::align_val_t align) {
  return operator new(size, align);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p, std::size_t,
                                                 std::align_val_t) noexcept {
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
// Differential A/B: scalar reference vs vectorized. The database's oracle
// and a fuzz::ScalarOracle over the same context share the data but no
// memo, base cache or build table, so agreement is a genuine recomputation
// check, not a memo hit.
// ---------------------------------------------------------------------------

struct EngineLab {
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<fuzz::ScalarOracle> reference;
  std::vector<Query> workload;
};

EngineLab* MakeLab(const datagen::ScaleProfile& profile =
                       datagen::ScaleProfile::Medium().Scaled(0.01)) {
  auto* l = new EngineLab;
  engine::Database::Options options;
  options.profile = profile;
  options.seed = 42;
  l->db = engine::Database::CreateImdb(options);
  l->reference = std::make_unique<fuzz::ScalarOracle>(&l->db->context());
  l->workload = query::LoadWorkload("job", l->db->schema());
  return l;
}

/// The batched oracle and the scalar reference over one IMDB build.
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

/// Runs the full agreement sweep for one query across the two oracles:
/// filtered rows per alias and single-predicate rows per predicate byte
/// for byte, and join cardinalities (rows AND overflow flag) per
/// differential mask.
void CheckQueryAgreement(const Query& q, EngineLab& lab = Lab()) {
  Oracle& reference = *lab.reference;
  Oracle& batched = lab.db->oracle();
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
        fuzz::LoadReproducer(path, lab.db->schema(), &q);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    CheckQueryAgreement(q);
  }
}

/// The shapes of tests/answers/fallbacks.sql, bound against `schema`.
std::vector<Query> FallbackShapes(const catalog::Schema& schema) {
  std::vector<Query> queries;
  const util::Status status = query::LoadSqlWorkloadFile(
      std::string(LQOLAB_TEST_ANSWERS_DIR) + "/fallbacks.sql", schema,
      &queries);
  LQOLAB_CHECK_MSG(status.ok(), status.ToString());
  return queries;
}

Query FallbackShape(const catalog::Schema& schema, const std::string& id) {
  for (Query& q : FallbackShapes(schema)) {
    if (q.id == id) return q;
  }
  LQOLAB_CHECK_MSG(false, "no fallback shape " << id);
  return {};
}

Query BindOne(const char* sql, const catalog::Schema& schema) {
  std::vector<Query> queries;
  const util::Status status =
      query::LoadSqlWorkloadText(sql, "kernels", schema, &queries);
  LQOLAB_CHECK_MSG(status.ok(), status.ToString());
  LQOLAB_CHECK_EQ(queries.size(), 1u);
  return queries[0];
}

/// The count of the join over `mask` when every alias of `mask` is
/// cast_info and `mask` is connected by role_id equalities only: every
/// alias of a result tuple then has one role_id k, so the count is
/// Σ_k Π_a n_a(k), with n_a(k) the rows of alias a that pass its predicates
/// and have role_id k (NULL joins nothing). Other aliases of `q` must be
/// one-to-one lookups for it to be the count of a larger mask too. Read
/// straight from the column and the bound predicates, with no oracle code;
/// empty past INT64_MAX.
std::optional<int64_t> RoleIdCount(EngineLab& lab, const Query& q,
                                   AliasMask mask) {
  const catalog::Schema& schema = lab.db->schema();
  const catalog::TableId cast_info = schema.FindTable("cast_info");
  const catalog::ColumnId role_id =
      schema.table(cast_info).FindColumn("role_id");
  LQOLAB_CHECK(q.IsConnected(mask));
  for (const query::JoinEdge& edge : q.edges) {
    if ((mask & query::MaskOf(edge.left_alias)) &&
        (mask & query::MaskOf(edge.right_alias))) {
      LQOLAB_CHECK(edge.left_column == role_id &&
                   edge.right_column == role_id);
    }
  }
  const storage::Table& table = lab.db->context().table(cast_info);
  const storage::Column& roles = table.column(role_id);
  // Π_a n_a(k) per role_id k, saturated one past INT64_MAX.
  constexpr unsigned __int128 kPast = static_cast<unsigned __int128>(
                                          std::numeric_limits<int64_t>::max()) +
                                      1;
  std::map<Value, unsigned __int128> products;
  bool first = true;
  for (AliasMask bits = mask; bits != 0; bits &= bits - 1) {
    const AliasId a = static_cast<AliasId>(std::countr_zero(bits));
    LQOLAB_CHECK_EQ(q.relations[static_cast<size_t>(a)].table, cast_info);
    const std::vector<query::BoundPredicate> preds =
        query::BindAliasPredicates(q, a, table);
    std::map<Value, int64_t> n;
    for (RowId r = 0; r < table.row_count(); ++r) {
      if (roles.at(r) == storage::kNullValue) continue;
      bool match = true;
      for (const query::BoundPredicate& pred : preds) {
        match = match && pred.Matches(table.column(pred.column).at(r));
      }
      if (match) ++n[roles.at(r)];
    }
    if (first) {
      for (const auto& [k, count] : n) products[k] = count;
      first = false;
      continue;
    }
    for (auto& [k, product] : products) {
      const auto it = n.find(k);
      product = std::min(kPast, product * (it == n.end() ? 0 : it->second));
    }
  }
  unsigned __int128 total = 0;
  for (const auto& [k, product] : products) {
    total = std::min(kPast, total + product);
  }
  if (total == kPast) return std::nullopt;
  return static_cast<int64_t>(total);
}

/// TrueJoinRows of `mask` under both oracles, checked against the contract
/// between them: where the reference counts, the product counts the same;
/// wherever the product counts, it counts `count` (the closed form, empty
/// past INT64_MAX), so where the reference overflows the product either
/// counts `count` or overflows too. Returns the product's answer.
Oracle::CardResult ExpectContract(EngineLab& lab, const Query& q,
                                  AliasMask mask,
                                  std::optional<int64_t> count) {
  const Oracle::CardResult want = lab.reference->TrueJoinRows(q, mask);
  const Oracle::CardResult got = lab.db->oracle().TrueJoinRows(q, mask);
  if (!want.overflow) {
    EXPECT_FALSE(got.overflow) << q.id << " mask " << mask;
    EXPECT_EQ(got.rows, want.rows) << q.id << " mask " << mask;
  }
  if (!got.overflow) {
    EXPECT_EQ(std::optional<int64_t>(got.rows), count)
        << q.id << " mask " << mask;
  }
  return got;
}

/// Physical rows the product oracle's joins write for `mask`.
int64_t ProductRowsWritten(EngineLab& lab, const Query& q, AliasMask mask) {
  obs::MetricsRegistry metrics;
  {
    obs::MetricsScope scope(&metrics);
    lab.db->oracle().TrueJoinRows(q, mask);
  }
  return metrics.Get(obs::Counter::kOracleIntermediateRows);
}

/// Every fallbacks.sql shape through fresh oracles, each after its pair of
/// aliases 0 and 1 as tests/test_answers.cc asks: every count the product
/// gives is the closed form, and every count the reference gives is the
/// product's. The reference's caps on logical rows trip on every full mask
/// here; the product counts five of the eight (the answers file pins which).
TEST(OverflowDifferential, FallbackShapesMatchClosedForm) {
  EngineLab& lab = Lab();
  Oracle product(&lab.db->context());
  fuzz::ScalarOracle reference(&lab.db->context());
  int32_t counted = 0;
  for (const Query& q : FallbackShapes(lab.db->schema())) {
    const AliasMask pair = query::MaskOf(0) | query::MaskOf(1);
    for (const AliasMask mask : {pair, q.FullMask()}) {
      const std::optional<int64_t> count = RoleIdCount(lab, q, mask);
      const Oracle::CardResult got = product.TrueJoinRows(q, mask);
      const Oracle::CardResult want = reference.TrueJoinRows(q, mask);
      if (!got.overflow) {
        EXPECT_EQ(std::optional<int64_t>(got.rows), count)
            << q.id << " mask " << mask;
      }
      if (!want.overflow) {
        EXPECT_FALSE(got.overflow) << q.id << " mask " << mask;
        EXPECT_EQ(want.rows, got.rows) << q.id << " mask " << mask;
      }
      counted += mask == pair || got.overflow ? 0 : 1;
    }
  }
  EXPECT_EQ(counted, 5);
}

/// Stored-rows cap: in a 4-clique whose c3 keeps the cast rows of movies
/// below 100, the triple (c1, c2, c3) keeps all three columns (each has an
/// edge to c4), so it stores all of its Σ_k n_k² m_k rows — past
/// kMaxIntermediateRows, though three cells a row stay under
/// kMaxIntermediateCells. Both oracles overflow on it, and the pairs
/// inside it count in both.
constexpr const char* kStoredRowsSql = R"sql(
-- kernels_stored_rows
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3,
  cast_info AS c4
WHERE c1.role_id = c2.role_id AND c1.role_id = c3.role_id
  AND c1.role_id = c4.role_id AND c2.role_id = c3.role_id
  AND c2.role_id = c4.role_id AND c3.role_id = c4.role_id
  AND c3.movie_id < 100;
)sql";

TEST(OverflowDifferential, SelfJoinOverflowFlagsAgree) {
  EngineLab& lab = Lab();
  const Query q = BindOne(kStoredRowsSql, lab.db->schema());
  const AliasMask c3 = query::MaskOf(2);
  const AliasMask triple = query::MaskOf(0) | query::MaskOf(1) | c3;
  for (const AliasMask pair : {query::MaskOf(0) | c3, query::MaskOf(1) | c3}) {
    EXPECT_FALSE(
        ExpectContract(lab, q, pair, RoleIdCount(lab, q, pair)).overflow);
  }
  const std::optional<int64_t> rows = RoleIdCount(lab, q, triple);
  ASSERT_TRUE(rows.has_value());
  EXPECT_GT(*rows, cost::kMaxIntermediateRows);
  EXPECT_LT(*rows * 3, cost::kMaxIntermediateCells);
  EXPECT_TRUE(ExpectContract(lab, q, triple, rows).overflow);
  EXPECT_TRUE(lab.reference->TrueJoinRows(q, triple).overflow);
}

/// With the pair (c1, c2) held, the chain extends it by c3 (the pair keeps
/// only c2, weighted by c1's matches), the triangle extends it through two
/// edges (the pair keeps both), and the 4-cycle joins (c1, c3), weighted by
/// c2's matches, to c4. Every full mask has more logical rows than
/// kMaxIntermediateRows, so the reference overflows on each, while the
/// product stores a few thousand rows and counts each exactly.
TEST(OverflowDifferential, CollapsedCountsMatchClosedForm) {
  EngineLab& lab = Lab();
  for (const char* id : {"kernels_count_chain", "kernels_count_triangle",
                         "kernels_overflow_cycle"}) {
    const Query q = FallbackShape(lab.db->schema(), id);
    const AliasMask pair = query::MaskOf(0) | query::MaskOf(1);
    ASSERT_FALSE(
        ExpectContract(lab, q, pair, RoleIdCount(lab, q, pair)).overflow);
    EXPECT_TRUE(lab.db->oracle().HoldsIntermediate(q, pair)) << id;

    const Oracle::CardResult card =
        ExpectContract(lab, q, q.FullMask(), RoleIdCount(lab, q, q.FullMask()));
    EXPECT_FALSE(card.overflow) << id;
    EXPECT_GT(card.rows, cost::kMaxIntermediateRows) << id;
    EXPECT_TRUE(lab.reference->TrueJoinRows(q, q.FullMask()).overflow) << id;
  }
}

/// The product's caps read what it stores, not the logical rows a
/// tuple-at-a-time evaluation would write. The two tests below take
/// collapsed intermediates whose logical rows trip a cap: the reference,
/// which decides its caps on logical rows, overflows on them, while the
/// product holds and counts them.
///
/// Logical rows: in the 4-chain c1–c2–c3–c4 the pair (c1, c2) keeps only
/// c2, under 1% of its logical rows, and the triple (c1, c2, c3) collapses
/// the same way onto c3's 1400 rows although its logical rows pass
/// kMaxIntermediateRows: the product holds it, the reference overflows.
///
/// Logical cells: c1 and c2 (joined on role_id) each carry four dimensions
/// that match one row apiece (title, its kind, name, role type), and c3
/// hangs off c2. The 10-relation subset without c3 keeps only c2. Adding c3
/// gives 11 relations whose logical rows stay under kMaxIntermediateRows
/// but need more than kMaxIntermediateCells cells at one per relation, so
/// the reference overflows on the full mask; the product's result, with no
/// frontier, is a single count.
constexpr const char* kWideCellsSql = R"sql(
-- kernels_wide_cells
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3,
  title AS t1, name AS n1, role_type AS rt1, kind_type AS kt1,
  title AS t2, name AS n2, role_type AS rt2, kind_type AS kt2
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id
  AND c1.movie_id = t1.id AND c1.person_id = n1.id AND c1.role_id = rt1.id
  AND t1.kind_id = kt1.id AND c2.movie_id = t2.id AND c2.person_id = n2.id
  AND c2.role_id = rt2.id AND t2.kind_id = kt2.id AND c3.movie_id < 50;
)sql";

TEST(OverflowDifferential, CollapsedIntermediatesTripRowsCapOnLogicalRows) {
  EngineLab& lab = Lab();
  const Query q = FallbackShape(lab.db->schema(), "kernels_tree_count");
  const AliasMask pair = query::MaskOf(0) | query::MaskOf(1);
  const int64_t pair_rows = ProductRowsWritten(lab, q, pair);
  const Oracle::CardResult pair_card =
      ExpectContract(lab, q, pair, RoleIdCount(lab, q, pair));
  EXPECT_TRUE(lab.db->oracle().HoldsIntermediate(q, pair));
  EXPECT_GT(pair_rows, 0);
  EXPECT_LT(pair_rows * 100, pair_card.rows) << "pair did not collapse";

  const AliasMask triple = pair | query::MaskOf(2);
  const Oracle::CardResult card =
      ExpectContract(lab, q, triple, RoleIdCount(lab, q, triple));
  EXPECT_FALSE(card.overflow);
  EXPECT_GT(card.rows, cost::kMaxIntermediateRows);
  EXPECT_TRUE(lab.db->oracle().HoldsIntermediate(q, triple));
  EXPECT_TRUE(lab.reference->TrueJoinRows(q, triple).overflow);
}

TEST(OverflowDifferential, CollapsedIntermediatesTripCellsCapOnLogicalRows) {
  EngineLab& lab = Lab();
  const Query q = BindOne(kWideCellsSql, lab.db->schema());
  auto alias = [&](const std::string& name) {
    for (AliasId a = 0; a < q.relation_count(); ++a) {
      if (q.relations[static_cast<size_t>(a)].alias == name) {
        return query::MaskOf(a);
      }
    }
    ADD_FAILURE() << "no alias " << name;
    return AliasMask{0};
  };
  // Every dimension matches one row, so the cast_info aliases decide the
  // count.
  const AliasMask casts = alias("c1") | alias("c2");
  const AliasMask rest = q.FullMask() & ~alias("c3");
  ExpectContract(lab, q, rest & ~alias("kt2"), RoleIdCount(lab, q, casts));
  const int64_t rest_rows = ProductRowsWritten(lab, q, rest);
  const Oracle::CardResult rest_card =
      ExpectContract(lab, q, rest, RoleIdCount(lab, q, casts));
  EXPECT_TRUE(lab.db->oracle().HoldsIntermediate(q, rest));
  EXPECT_GT(rest_rows, 0);
  EXPECT_LT(rest_rows * 100, rest_card.rows) << "subset did not collapse";

  const Oracle::CardResult card = ExpectContract(
      lab, q, q.FullMask(), RoleIdCount(lab, q, casts | alias("c3")));
  EXPECT_FALSE(card.overflow);
  EXPECT_TRUE(lab.reference->TrueJoinRows(q, q.FullMask()).overflow);
  // Pin the shape: the logical cells cap decides, not the rows cap.
  const int64_t width = q.relation_count();
  EXPECT_LE(card.rows, cost::kMaxIntermediateRows);
  EXPECT_GE((card.rows - 1) * width, cost::kMaxIntermediateCells);
}

/// Stored-cells cap: the triangle c1, c2, c3 (c3 keeps the cast rows of
/// movies below 70) with c1's title and name and c3's title, each of the
/// six given an edge leaving the subset, so the subset of those six keeps
/// all six columns. Its Σ_k n_k² m_k stored rows stay under
/// kMaxIntermediateRows, but six cells a row reach kMaxIntermediateCells,
/// so both oracles overflow on it.
constexpr const char* kStoredCellsSql = R"sql(
-- kernels_stored_cells
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c3, title AS t1,
  title AS t3, name AS n1, cast_info AS c2, role_type AS rt1,
  role_type AS rt2, role_type AS rt3, kind_type AS kt1, kind_type AS kt3,
  aka_name AS an1
WHERE c1.role_id = c2.role_id AND c2.role_id = c3.role_id
  AND c3.role_id = c1.role_id AND c1.movie_id = t1.id
  AND c3.movie_id = t3.id AND c1.person_id = n1.id
  AND c1.role_id = rt1.id AND c2.role_id = rt2.id AND c3.role_id = rt3.id
  AND t1.kind_id = kt1.id AND t3.kind_id = kt3.id
  AND n1.id = an1.person_id AND c3.movie_id < 70;
)sql";

TEST(OverflowDifferential, StoredCellsCapTripsWideIntermediates) {
  EngineLab& lab = Lab();
  const Query q = BindOne(kStoredCellsSql, lab.db->schema());
  // c1, c3, t1, t3, n1, c2: the first six aliases.
  const AliasMask wide = (AliasMask{1} << 6) - 1;
  const AliasMask casts = query::MaskOf(0) | query::MaskOf(1) |
                          query::MaskOf(5);
  const std::optional<int64_t> rows = RoleIdCount(lab, q, casts);
  ASSERT_TRUE(rows.has_value());
  EXPECT_LE(*rows, cost::kMaxIntermediateRows);
  EXPECT_GE(*rows * 6, cost::kMaxIntermediateCells);
  EXPECT_TRUE(ExpectContract(lab, q, wide, rows).overflow);
}

/// Visited-pairs bound: in a 4-clique whose c3 keeps the cast rows of
/// movies below 20, the triple (c1, c2, c3) stores its Σ_k n_k² m_k rows,
/// well under the caps, and its extension by c4 — three edges, no kept
/// column, so a single count — walks each row's whole c4 group to check
/// the residual edges: Σ_k n_k³ m_k base rows, the count itself, past
/// kMaxVisitedPairs. The product overflows although the count fits.
constexpr const char* kVisitedPairsSql = R"sql(
-- kernels_visited_pairs
SELECT COUNT(*) FROM cast_info AS c1, cast_info AS c2, cast_info AS c3,
  cast_info AS c4
WHERE c1.role_id = c2.role_id AND c1.role_id = c3.role_id
  AND c1.role_id = c4.role_id AND c2.role_id = c3.role_id
  AND c2.role_id = c4.role_id AND c3.role_id = c4.role_id
  AND c3.movie_id < 20;
)sql";

TEST(OverflowDifferential, VisitedPairsBoundStopsJoins) {
  EngineLab& lab = Lab();
  const Query q = BindOne(kVisitedPairsSql, lab.db->schema());
  const AliasMask triple =
      query::MaskOf(0) | query::MaskOf(1) | query::MaskOf(2);
  const Oracle::CardResult left =
      ExpectContract(lab, q, triple, RoleIdCount(lab, q, triple));
  ASSERT_FALSE(left.overflow);
  EXPECT_TRUE(lab.db->oracle().HoldsIntermediate(q, triple));
  EXPECT_LE(left.rows, cost::kMaxIntermediateRows);

  const std::optional<int64_t> count = RoleIdCount(lab, q, q.FullMask());
  ASSERT_TRUE(count.has_value());
  EXPECT_GT(*count, cost::kMaxVisitedPairs);
  EXPECT_TRUE(ExpectContract(lab, q, q.FullMask(), count).overflow);
}

/// Overflow, never a wrong count: every prefix of the 8-chain keeps only its
/// last alias, so the 7-alias prefix stores at most 1400 rows and counts
/// Σ_k n_k⁷ ≈ 9.5e17, but the full chain's Σ_k n_k⁸ ≈ 3.4e20 passes
/// INT64_MAX, and its weighted sum must report overflow. In a 9-chain whose
/// c8 keeps one row of the largest role_id group (n rows), the 8-alias
/// prefix is that row at weight n⁷, which fits, and extending it by c9
/// multiplies the weight by n's matches, past INT64_MAX in one product.
TEST(OverflowDifferential, CountPastInt64Overflows) {
  EngineLab& lab = Lab();
  const Query q = FallbackShape(lab.db->schema(), "chain8");
  const AliasMask prefix = q.FullMask() & ~query::MaskOf(7);
  const int64_t prefix_rows = ProductRowsWritten(lab, q, prefix);
  EXPECT_GT(prefix_rows, 0);
  EXPECT_LE(prefix_rows, 6 * 1400);
  EXPECT_FALSE(
      ExpectContract(lab, q, prefix, RoleIdCount(lab, q, prefix)).overflow);
  EXPECT_TRUE(lab.db->oracle().HoldsIntermediate(q, prefix));

  EXPECT_FALSE(RoleIdCount(lab, q, q.FullMask()).has_value());
  EXPECT_TRUE(ExpectContract(lab, q, q.FullMask(), std::nullopt).overflow);

  const catalog::Schema& schema = lab.db->schema();
  const catalog::TableId cast_info = schema.FindTable("cast_info");
  const storage::Table& table = lab.db->context().table(cast_info);
  const storage::Column& roles =
      table.column(schema.table(cast_info).FindColumn("role_id"));
  std::map<Value, int64_t> group_size;
  for (RowId r = 0; r < table.row_count(); ++r) {
    if (roles.at(r) != storage::kNullValue) ++group_size[roles.at(r)];
  }
  const Value largest =
      std::max_element(group_size.begin(), group_size.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })->first;
  RowId one = 0;
  while (roles.at(one) != largest) ++one;
  std::string sql =
      "-- kernels_chain9\nSELECT COUNT(*) FROM cast_info AS c1";
  for (int i = 2; i <= 9; ++i) sql += ", cast_info AS c" + std::to_string(i);
  sql += " WHERE c1.role_id = c2.role_id";
  for (int i = 2; i < 9; ++i) {
    sql += " AND c" + std::to_string(i) + ".role_id = c" +
           std::to_string(i + 1) + ".role_id";
  }
  sql += " AND c8.id = " +
         std::to_string(
             table.column(schema.table(cast_info).FindColumn("id")).at(one)) +
         ";\n";
  const Query chain9 = BindOne(sql.c_str(), schema);
  const AliasMask head = chain9.FullMask() & ~query::MaskOf(8);
  const std::optional<int64_t> head_count = RoleIdCount(lab, chain9, head);
  ASSERT_TRUE(head_count.has_value());
  EXPECT_FALSE(ExpectContract(lab, chain9, head, head_count).overflow);
  EXPECT_TRUE(lab.db->oracle().HoldsIntermediate(chain9, head));
  EXPECT_FALSE(RoleIdCount(lab, chain9, chain9.FullMask()).has_value());
  EXPECT_TRUE(
      ExpectContract(lab, chain9, chain9.FullMask(), std::nullopt).overflow);
}

// ---------------------------------------------------------------------------
// Whole-table bases: the batched oracle probes the shared storage::Index
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
  const catalog::Schema& schema = lab.db->schema();
  const catalog::TableId cast_info = schema.FindTable("cast_info");
  const storage::Column& person_role_id = lab.db->context()
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
    // The batched oracle took the index path for this query at least
    // once, so agreement above covers it (the reference never does).
    EXPECT_GT(metrics.Get(obs::Counter::kOracleIndexJoins), 0) << q.id;
  }
}

/// Cold workload passes (fresh database, caches dropped before each query)
/// count the oracle's index joins and hash builds.
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

engine::Database::Options ColdPassOptions() {
  engine::Database::Options options;
  options.profile = datagen::ScaleProfile::Medium().Scaled(0.01);
  options.seed = 42;
  return options;
}

/// Without this, a silent fall-back to the build path would still pass
/// every identity test above.
TEST(IndexJoinCounters, BatchedEngineProbesSharedIndexes) {
  const engine::Database::Options options = ColdPassOptions();
  auto imdb = engine::Database::CreateImdb(options);
  const ColdPassCounts job = ColdPass(*imdb, "job");
  EXPECT_GT(job.index_joins, 0);
  EXPECT_GT(job.hash_builds, 0);  // filtered bases still build

  auto tpch = engine::Database::CreateTpch(
      options, datagen::TpchScaleProfile::Small().Scaled(0.5));
  EXPECT_GT(ColdPass(*tpch, "tpch").index_joins, 0);
}

/// The reference hashes every base, whole tables included: a sweep of
/// every differential mask of JOB-lite records hash builds and no index
/// join.
TEST(IndexJoinCounters, ScalarReferenceRecordsNoIndexJoins) {
  auto imdb = engine::Database::CreateImdb(ColdPassOptions());
  fuzz::ScalarOracle reference(&imdb->context());
  obs::MetricsRegistry metrics;
  {
    obs::MetricsScope scope(&metrics);
    for (const Query& q : query::LoadWorkload("job", imdb->schema())) {
      for (const AliasMask mask : DifferentialMasks(q)) {
        reference.TrueJoinRows(q, mask);
      }
      reference.ReleaseMaterializations();
    }
  }
  EXPECT_EQ(metrics.Get(obs::Counter::kOracleIndexJoins), 0);
  EXPECT_GT(metrics.Get(obs::Counter::kOracleHashBuilds), 0);
}

/// Rows and row-id cells one oracle's joins write over every connected
/// subset of every JOB-lite query, in ascending mask order (each subset
/// after all of its submasks, as a bottom-up plan search asks for them).
struct WrittenCounts {
  int64_t rows = 0;
  int64_t cells = 0;
};

WrittenCounts JobLiteSubsetSweep(Oracle& oracle,
                                 const std::vector<Query>& workload) {
  obs::MetricsRegistry metrics;
  {
    obs::MetricsScope scope(&metrics);
    for (const Query& q : workload) {
      for (AliasMask mask = 1; mask <= q.FullMask(); ++mask) {
        if (q.IsConnected(mask)) oracle.TrueJoinRows(q, mask);
      }
      oracle.ReleaseMaterializations();
    }
  }
  return {metrics.Get(obs::Counter::kOracleIntermediateRows),
          metrics.Get(obs::Counter::kOracleIntermediateCells)};
}

/// The product writes one row per distinct frontier tuple: pinned counts
/// on the test database (a join that stopped merging, or kept a column
/// off the frontier, writes more), against the reference's full tuples.
TEST(WeightedIntermediates, JobLiteSubsetSweepWritesFrontierRows) {
  auto imdb = engine::Database::CreateImdb(ColdPassOptions());
  const std::vector<Query> workload =
      query::LoadWorkload("job", imdb->schema());
  Oracle product(&imdb->context());
  fuzz::ScalarOracle reference(&imdb->context());
  const WrittenCounts got = JobLiteSubsetSweep(product, workload);
  const WrittenCounts full = JobLiteSubsetSweep(reference, workload);
  EXPECT_EQ(got.rows, 4188712);
  EXPECT_EQ(got.cells, 14906711);
  EXPECT_LT(got.rows, full.rows);
  EXPECT_LT(got.cells * 2, full.cells);
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

// ---------------------------------------------------------------------------
// Build-side layouts: JoinHashTable and ValueSet choose a direct layout (an
// offset table, a bitmap) when the input's key range is dense enough and
// open addressing otherwise. Every input is checked against the reference
// path's containers, on a fresh object and on one object rebuilt across
// all inputs in turn.
// ---------------------------------------------------------------------------

constexpr Value kInt32Max = std::numeric_limits<Value>::max();

/// The layout rules' slot count: the smallest power of two ≥ 2n, at
/// least 16.
int64_t SlotCapacity(int64_t n) {
  int64_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  return cap;
}

/// One build input and the layout each structure must choose for it.
struct LayoutInput {
  std::string name;
  std::vector<Value> column;
  bool direct_table;
  bool direct_set;
};

/// `rows` keys in [lo, lo + span), both ends present, every 10th row NULL
/// (NULL rows count toward the slot capacity, as in a build).
std::vector<Value> SpanColumn(int64_t rows, uint64_t seed, Value lo,
                              int64_t span) {
  util::Rng rng(seed);
  std::vector<Value> column(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t offset = r == 0   ? 0
                           : r == 1 ? span - 1
                           : r % 10 == 9
                               ? -1
                               : static_cast<int64_t>(
                                     rng.UniformInt(0, span - 1));
    column[static_cast<size_t>(r)] =
        offset < 0 ? storage::kNullValue
                   : static_cast<Value>(static_cast<int64_t>(lo) + offset);
  }
  return column;
}

/// Inputs in rebuild order: a wide dense build, a sparse one, then a
/// 64-key dense one whose first out-of-range slot still holds the wide
/// build's bits and offsets, so a probe past the span that reads it fails.
std::vector<LayoutInput> LayoutInputs() {
  std::vector<LayoutInput> inputs;
  inputs.push_back({"dense_wide", SyntheticColumn(20'000, 5, 1'000, 0.05),
                    true, true});
  {
    // 2,000 distinct keys over ±1e9, each repeated.
    util::Rng rng(17);
    std::vector<Value> keys;
    for (int i = 0; i < 2'000; ++i) {
      keys.push_back(
          static_cast<Value>(rng.UniformInt(-1'000'000'000, 1'000'000'000)));
    }
    std::vector<Value> column(20'000);
    for (auto& v : column) {
      v = rng.Uniform() < 0.05
              ? storage::kNullValue
              : keys[static_cast<size_t>(rng.UniformInt(0, 1'999))];
    }
    inputs.push_back({"sparse", std::move(column), false, false});
  }
  inputs.push_back({"dense_64", SpanColumn(2'000, 9, 0, 64), true, true});
  inputs.push_back(
      {"dense_300", SyntheticColumn(20'000, 11, 300, 0.05), true, true});
  {
    std::vector<Value> column = SyntheticColumn(3'000, 13, 300, 0.05);
    for (auto& v : column) {
      if (v != storage::kNullValue) v -= 300;  // keys in [-300, -1]
    }
    inputs.push_back({"negative", std::move(column), true, true});
  }
  inputs.push_back({"near_int32_min",
                    SpanColumn(3'000, 19, storage::kNullValue + 1, 300), true,
                    true});
  inputs.push_back({"near_int32_max",
                    SpanColumn(3'000, 23, kInt32Max - 299, 300), true, true});
  {
    // The widest span a non-null key set can have: 2^32 - 1.
    std::vector<Value> column;
    for (int i = 0; i < 1'000; ++i) {
      const Value pick[] = {storage::kNullValue + 1, kInt32Max, 0, -5, 77,
                            storage::kNullValue};
      column.push_back(pick[i % 6]);
    }
    inputs.push_back({"int32_extremes", std::move(column), false, false});
  }
  inputs.push_back({"all_null",
                    std::vector<Value>(500, storage::kNullValue), true, true});
  inputs.push_back({"empty", {}, true, true});
  // Each rule's bound and one past it, at 100 rows (256 slots): the table
  // is direct up to span + 1 == 3 * 256, the set up to span == 32 * 256.
  const int64_t n = 100;
  const int64_t cap = SlotCapacity(n);
  inputs.push_back({"table_bound", SpanColumn(n, 29, -400, 3 * cap - 1), true,
                    true});
  inputs.push_back({"table_bound_plus_1", SpanColumn(n, 31, -400, 3 * cap),
                    false, true});
  inputs.push_back(
      {"set_bound", SpanColumn(n, 37, -400, 32 * cap), false, true});
  inputs.push_back({"set_bound_plus_1", SpanColumn(n, 41, -400, 32 * cap + 1),
                    false, false});
  return inputs;
}

/// Probe values for an input: every key, its neighbours, both non-null
/// int32 ends and a few arbitrary values (callers never probe NULL).
std::vector<Value> ProbeValues(const std::vector<Value>& column) {
  std::vector<Value> probes = {storage::kNullValue + 1,
                               kInt32Max,
                               kInt32Max - 1,
                               0,
                               -1,
                               -7,
                               1'000,
                               123'456'789};
  for (const Value v : column) {
    if (v == storage::kNullValue) continue;
    probes.push_back(v);
    if (v > storage::kNullValue + 1) probes.push_back(v - 1);
    if (v < kInt32Max) probes.push_back(v + 1);
  }
  return probes;
}

/// Checks `table` and `set`, built over all rows of `input`, against the
/// reference path's per-key vectors and value set.
void ExpectMatchesReference(const LayoutInput& input,
                            const kernels::JoinHashTable& table,
                            const kernels::ValueSet& set) {
  SCOPED_TRACE(input.name);
  std::unordered_map<Value, std::vector<RowId>> groups;
  std::unordered_set<Value> present;
  int64_t keys = 0;
  for (size_t r = 0; r < input.column.size(); ++r) {
    const Value v = input.column[r];
    if (v == storage::kNullValue) continue;
    groups[v].push_back(static_cast<RowId>(r));
    present.insert(v);
    ++keys;
  }
  EXPECT_EQ(table.direct(), input.direct_table);
  EXPECT_EQ(set.direct(), input.direct_set);
  EXPECT_EQ(table.distinct(), static_cast<int64_t>(groups.size()));
  EXPECT_EQ(table.payload_rows(), keys);
  EXPECT_EQ(set.distinct(), static_cast<int64_t>(present.size()));
  for (const Value v : ProbeValues(input.column)) {
    const auto it = groups.find(v);
    const kernels::JoinHashTable::Group group = table.Probe(v);
    if (it == groups.end()) {
      ASSERT_EQ(group.count, 0) << "absent key " << v;
    } else {
      const std::vector<RowId>& expected = it->second;
      ASSERT_EQ(group.count, static_cast<int32_t>(expected.size())) << v;
      for (int32_t i = 0; i < group.count; ++i) {
        ASSERT_EQ(group.rows[i], expected[static_cast<size_t>(i)])
            << "key " << v << " position " << i;
      }
    }
    ASSERT_EQ(set.Contains(v), present.count(v) > 0) << "value " << v;
  }
}

TEST(JoinHashTableKernel, ProbeReplaysReferenceInsertionOrder) {
  kernels::JoinHashTable reused_table;
  kernels::ValueSet reused_set;
  for (const LayoutInput& input : LayoutInputs()) {
    const int64_t n = static_cast<int64_t>(input.column.size());
    std::vector<RowId> rows;
    kernels::SelectAll(n, &rows);
    const kernels::KeyRange range =
        kernels::KeyRange::Of(input.column.data(), rows.data(), n);

    kernels::JoinHashTable table;
    kernels::ValueSet set;
    table.Build(input.column.data(), rows.data(), n);
    set.Build(input.column.data(), rows.data(), n);
    ExpectMatchesReference(input, table, set);
    // A kept table is admitted by exactly the bytes it will hold.
    table.ReleaseBuildScratch();
    EXPECT_EQ(table.bytes(), kernels::JoinHashTable::RetainedBytes(range))
        << input.name;
    ExpectMatchesReference(input, table, set);

    reused_table.Build(input.column.data(), rows.data(), range);
    reused_set.Build(input.column.data(), rows.data(), n);
    ExpectMatchesReference(input, reused_table, reused_set);
  }
}

/// The same key set built with and without NULL padding rows: the padding
/// raises the slot capacity until both structures go direct, and the
/// Bloom filter either layout fills has the same bits.
TEST(JoinHashTableKernel, FillBloomAddsTheSameKeysFromEitherLayout) {
  std::vector<Value> column;
  for (Value k = 0; k < 500; ++k) column.push_back(k * 97 - 20'000);
  std::vector<RowId> rows;
  kernels::SelectAll(static_cast<int64_t>(column.size()), &rows);
  kernels::JoinHashTable sparse_table;
  kernels::ValueSet sparse_set;
  sparse_table.Build(column.data(), rows.data(),
                     static_cast<int64_t>(rows.size()));
  sparse_set.Build(column.data(), rows.data(),
                   static_cast<int64_t>(rows.size()));
  ASSERT_FALSE(sparse_table.direct());
  ASSERT_FALSE(sparse_set.direct());

  column.resize(20'000, storage::kNullValue);
  rows.clear();
  kernels::SelectAll(static_cast<int64_t>(column.size()), &rows);
  kernels::JoinHashTable direct_table;
  kernels::ValueSet direct_set;
  direct_table.Build(column.data(), rows.data(),
                     static_cast<int64_t>(rows.size()));
  direct_set.Build(column.data(), rows.data(),
                   static_cast<int64_t>(rows.size()));
  ASSERT_TRUE(direct_table.direct());
  ASSERT_TRUE(direct_set.direct());

  BloomFilter from_sparse;
  BloomFilter from_direct;
  sparse_table.FillBloom(&from_sparse);
  direct_table.FillBloom(&from_direct);
  EXPECT_TRUE(from_sparse.BitsEqual(from_direct));
  sparse_set.FillBloom(&from_sparse);
  direct_set.FillBloom(&from_direct);
  EXPECT_TRUE(from_sparse.BitsEqual(from_direct));
  for (Value k = 0; k < 500; ++k) {
    ASSERT_TRUE(from_direct.MayContain(k * 97 - 20'000));
  }
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
/// filters the kernel built. Runs twice: as given, where the set is a
/// bitmap, and with every key multiplied by a stride that spreads the set
/// too thin for one, where it is open addressing; both runs must keep the
/// same rows and build the same number of filters.
int64_t RefineAndCountBuilds(const std::vector<Value>& column) {
  constexpr Value kSparseStride = 100'003;
  std::vector<RowId> kept[2];
  int64_t builds[2] = {0, 0};
  for (const bool sparse : {false, true}) {
    const Value stride = sparse ? kSparseStride : 1;
    std::vector<Value> keys(static_cast<size_t>(kSetKeys));
    for (Value k = 0; k < kSetKeys; ++k) {
      keys[static_cast<size_t>(k)] = k * stride;
    }
    std::vector<Value> probes = column;
    for (Value& v : probes) {
      if (v != storage::kNullValue) v *= stride;
    }
    std::vector<RowId> key_rows;
    kernels::SelectAll(kSetKeys, &key_rows);
    kernels::ValueSet set;
    set.Build(keys.data(), key_rows.data(), kSetKeys);
    EXPECT_EQ(set.direct(), !sparse);

    std::vector<RowId> rows;
    kernels::SelectAll(static_cast<int64_t>(probes.size()), &rows);
    std::vector<RowId> want;
    for (const RowId r : rows) {
      const Value v = probes[static_cast<size_t>(r)];
      if (v != storage::kNullValue && set.Contains(v)) want.push_back(r);
    }

    BloomFilter bloom;
    obs::MetricsRegistry metrics;
    {
      obs::MetricsScope scope(&metrics);
      kernels::RefineBySet(probes.data(), set, &bloom, &rows);
    }
    EXPECT_TRUE(rows == want) << "refine diverged from the exact refine";
    kept[sparse ? 1 : 0] = std::move(rows);
    builds[sparse ? 1 : 0] = metrics.Get(obs::Counter::kOracleBloomBuilds);
  }
  EXPECT_TRUE(kept[0] == kept[1]) << "the set's layout changed the rows kept";
  EXPECT_EQ(builds[0], builds[1]);
  return builds[0];
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
      "join_loop_transfer", lab.db->schema(), &queries);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const Query& q = queries[0];
  const AliasMask self_join = query::MaskOf(1) | query::MaskOf(2);
  Oracle& reference = *lab.reference;
  Oracle& batched = lab.db->oracle();

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
