// Unit tests for the storage layer: columns, tables, indexes, LRU cache,
// two-tier buffer pool (checked against a two-LruCache reference model).

#include <algorithm>
#include <climits>
#include <functional>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/imdb_schema.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/column.h"
#include "storage/index.h"
#include "storage/lru_cache.h"
#include "storage/table.h"
#include "util/rng.h"

namespace lqolab::storage {
namespace {

catalog::TableDef TwoColumnDef() {
  return {.name = "t",
          .columns = {{"id", catalog::ColumnType::kInt},
                      {"label", catalog::ColumnType::kString}},
          .foreign_keys = {}};
}

TEST(Column, DictionaryInternsOnce) {
  Column column(catalog::ColumnType::kString);
  const Value a = column.InternString("alpha");
  const Value b = column.InternString("beta");
  EXPECT_EQ(column.InternString("alpha"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(column.dictionary_size(), 2);
  EXPECT_EQ(column.StringAt(a), "alpha");
  EXPECT_EQ(column.LookupString("beta"), b);
  EXPECT_EQ(column.LookupString("missing"), kNullValue);
}

TEST(Table, AppendAndRead) {
  const catalog::TableDef def = TwoColumnDef();
  Table table(0, def);
  const Value label = table.column(1).InternString("x");
  table.AppendRow({1, label});
  table.AppendRow({2, label});
  EXPECT_EQ(table.row_count(), 2);
  EXPECT_EQ(table.column(0).at(1), 2);
  EXPECT_EQ(table.column(1).at(0), label);
}

TEST(Table, PageAccounting) {
  const catalog::TableDef def = TwoColumnDef();
  Table table(0, def);
  EXPECT_EQ(table.page_count(), 0);
  for (int i = 0; i < kRowsPerPage + 1; ++i) table.AppendRow({i, kNullValue});
  EXPECT_EQ(table.page_count(), 2);
  EXPECT_EQ(Table::PageOfRow(0), 0);
  EXPECT_EQ(Table::PageOfRow(static_cast<RowId>(kRowsPerPage)), 1);
}

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() : def_(TwoColumnDef()), table_(0, def_) {
    // Values: 0, 5, 5, 10, 15, NULL, 5.
    for (Value v : {0, 5, 5, 10, 15, kNullValue, 5}) {
      table_.AppendRow({v, kNullValue});
    }
    index_ = std::make_unique<Index>(table_, 0);
  }

  /// Indexes `values` (row i holds values[i]), checks the layout the data
  /// picks, and compares EqualRange with a scan for every probe value: each
  /// in [min - 2, max + 2] (clamped to Value) when that span is below
  /// kMaxSweep, else each within 2 of a key (min and max included), plus
  /// kNullValue and INT32_MAX. Row lists must match exactly, ascending.
  static void ExpectMatchesScan(const std::vector<Value>& values,
                                bool expect_dense) {
    constexpr int64_t kMaxSweep = 1 << 20;
    const catalog::TableDef def = TwoColumnDef();
    Table table(0, def);
    for (Value v : values) table.AppendRow({v, kNullValue});
    const Index index(table, 0);
    EXPECT_EQ(index.dense(), expect_dense);

    std::vector<int64_t> keys;  // 64-bit: min - 2 and max + 2 may leave Value
    for (Value v : values) {
      if (v != kNullValue) keys.push_back(v);
    }
    EXPECT_EQ(index.entry_count(), static_cast<int64_t>(keys.size()));
    std::vector<int64_t> probes = {kNullValue, INT32_MAX};
    if (!keys.empty()) {
      const int64_t lo = *std::min_element(keys.begin(), keys.end()) - 2;
      const int64_t hi = *std::max_element(keys.begin(), keys.end()) + 2;
      if (hi - lo < kMaxSweep) {
        for (int64_t v = lo; v <= hi; ++v) probes.push_back(v);
      } else {
        for (const int64_t key : keys) {
          for (int64_t d = -2; d <= 2; ++d) probes.push_back(key + d);
        }
      }
    }
    for (const int64_t probe : probes) {
      if (probe < INT32_MIN || probe > INT32_MAX) continue;
      const Value v = static_cast<Value>(probe);
      std::vector<RowId> expected;
      if (v != kNullValue) {
        for (size_t row = 0; row < values.size(); ++row) {
          if (values[row] == v) expected.push_back(static_cast<RowId>(row));
        }
      }
      const std::span<const RowId> got = index.EqualRange(v);
      ASSERT_EQ(std::vector<RowId>(got.begin(), got.end()), expected)
          << "probe " << v;
    }
  }

  catalog::TableDef def_;
  Table table_;
  std::unique_ptr<Index> index_;
};

TEST_F(IndexTest, SkipsNulls) { EXPECT_EQ(index_->entry_count(), 6); }

TEST_F(IndexTest, EqualRange) {
  const auto rows = index_->EqualRange(5);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], 1);
  EXPECT_EQ(rows[1], 2);
  EXPECT_EQ(rows[2], 6);
  EXPECT_TRUE(index_->EqualRange(99).empty());
}

TEST_F(IndexTest, DenseForeignKeyMatchesScan) {
  // A foreign-key-like column: keys 1..1000 in random order, repeated,
  // with NULLs.
  util::Rng rng(7);
  std::vector<Value> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(rng.Bernoulli(0.1)
                         ? kNullValue
                         : static_cast<Value>(rng.UniformInt(1, 1000)));
  }
  ExpectMatchesScan(values, /*expect_dense=*/true);
}

TEST_F(IndexTest, SparseColumnTakesFallbackAndMatchesScan) {
  // 300 entries over a span of ~300k: wider than entries + kSpanSlack.
  util::Rng rng(11);
  std::vector<Value> values;
  for (int i = 0; i < 300; ++i) {
    values.push_back(static_cast<Value>(1000 * rng.UniformInt(0, 299)));
  }
  values.push_back(kNullValue);
  ExpectMatchesScan(values, /*expect_dense=*/false);
}

TEST_F(IndexTest, LayoutRuleBoundary) {
  // One entry each at 0 and span - 1: dense exactly up to 2 + kSpanSlack.
  const Value widest = static_cast<Value>(2 + Index::kSpanSlack - 1);
  ExpectMatchesScan({0, widest}, /*expect_dense=*/true);
  ExpectMatchesScan({0, static_cast<Value>(widest + 1)},
                    /*expect_dense=*/false);
}

TEST_F(IndexTest, NegativeValuesMatchScan) {
  util::Rng rng(13);
  std::vector<Value> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<Value>(rng.UniformInt(-700, 300)));
  }
  ExpectMatchesScan(values, /*expect_dense=*/true);
}

TEST_F(IndexTest, ExtremeValuesMatchScan) {
  // max - min + 1 = 2^32 - 1: the span overflows 32-bit arithmetic.
  ExpectMatchesScan({INT32_MAX, INT32_MIN + 1, kNullValue, INT32_MAX, 0},
                    /*expect_dense=*/false);
  // Dense spans at either end of Value's range.
  ExpectMatchesScan({INT32_MAX, INT32_MAX - 3, kNullValue, INT32_MAX},
                    /*expect_dense=*/true);
  ExpectMatchesScan({INT32_MIN + 1, INT32_MIN + 4, INT32_MIN + 1},
                    /*expect_dense=*/true);
}

TEST_F(IndexTest, AllNullAndEmptyColumnsMatchScan) {
  ExpectMatchesScan({kNullValue, kNullValue, kNullValue},
                    /*expect_dense=*/true);
  ExpectMatchesScan({}, /*expect_dense=*/true);
}

TEST_F(IndexTest, HeightGrowsWithSize) {
  EXPECT_EQ(index_->height(), 1);
  catalog::TableDef def = TwoColumnDef();
  Table big(0, def);
  for (int i = 0; i < 300 * 256; ++i) big.AppendRow({i, kNullValue});
  Index big_index(big, 0);
  EXPECT_GE(big_index.height(), 2);
}

TEST(LruCache, HitsAndEvictions) {
  LruCache cache(2);
  EXPECT_FALSE(cache.Touch(1));
  EXPECT_FALSE(cache.Touch(2));
  EXPECT_TRUE(cache.Touch(1));   // 1 now most recent
  EXPECT_FALSE(cache.Touch(3));  // evicts 2
  EXPECT_FALSE(cache.Touch(2));  // 2 was evicted
  EXPECT_EQ(cache.size(), 2);
}

TEST(LruCache, ZeroCapacityNeverHits) {
  LruCache cache(0);
  EXPECT_FALSE(cache.Touch(1));
  EXPECT_FALSE(cache.Touch(1));
  EXPECT_EQ(cache.size(), 0);
}

TEST(LruCache, ResizeClears) {
  LruCache cache(4);
  cache.Touch(1);
  cache.Resize(8);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.capacity(), 8);
}

TEST(LruCache, TouchReportsEvictedKey) {
  LruCache cache(1);
  uint64_t evicted = 0;
  EXPECT_FALSE(cache.Touch(7, &evicted));
  EXPECT_EQ(evicted, 0u);  // no eviction on the first insert
  EXPECT_FALSE(cache.Touch(9, &evicted));
  EXPECT_EQ(evicted, 7u);
  EXPECT_EQ(cache.evictions(), 1);
}

TEST(LruCache, ClearCountsDroppedEntriesAsEvictions) {
  LruCache cache(4);
  cache.Touch(1);
  cache.Touch(2);
  cache.Touch(3);
  EXPECT_EQ(cache.evictions(), 0);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  // The lifetime eviction counter includes entries dropped wholesale.
  EXPECT_EQ(cache.evictions(), 3);
}

TEST(LruCache, ResizeCountsDroppedEntriesAsEvictions) {
  LruCache cache(4);
  cache.Touch(1);
  cache.Touch(2);
  cache.Resize(1);  // capacity shrink clears, which must count
  EXPECT_EQ(cache.evictions(), 2);
  cache.Touch(3);
  cache.Touch(4);  // evicts 3
  EXPECT_EQ(cache.evictions(), 3);
}

TEST(LruCache, TryResizeRejectsNegativeCapacityAndKeepsState) {
  LruCache cache(4);
  cache.Touch(1);
  const util::Status status = cache.TryResize(-1);
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(status.retryable());
  // The failed resize changed nothing: same capacity, entry still warm.
  EXPECT_EQ(cache.capacity(), 4);
  EXPECT_TRUE(cache.Contains(1));

  EXPECT_TRUE(cache.TryResize(8).ok());
  EXPECT_EQ(cache.capacity(), 8);
  EXPECT_FALSE(cache.Contains(1));  // a successful resize still clears
}

TEST(BufferPool, TryResizeRejectsNegativeTiersWithoutPartialResize) {
  BufferPool pool(4, 16);
  const uint64_t key = BufferPool::PageKey(1, PageKind::kHeap, -1, 0);
  pool.Access(key);

  // Either tier being unsatisfiable fails the whole resize; neither tier
  // may change (no half-resized pool).
  EXPECT_EQ(pool.TryResize(-1, 16).code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.TryResize(4, -1).code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.shared_capacity(), 4);
  EXPECT_EQ(pool.os_capacity(), 16);
  EXPECT_EQ(pool.Access(key), AccessTier::kSharedHit);

  EXPECT_TRUE(pool.TryResize(8, 32).ok());
  EXPECT_EQ(pool.shared_capacity(), 8);
  EXPECT_EQ(pool.os_capacity(), 32);
  EXPECT_EQ(pool.Access(key), AccessTier::kDisk);  // resize drops caches
}

TEST(BufferPool, TierProgression) {
  BufferPool pool(4, 16);
  const uint64_t key = BufferPool::PageKey(1, PageKind::kHeap, -1, 0);
  EXPECT_EQ(pool.Access(key), AccessTier::kDisk);
  EXPECT_EQ(pool.Access(key), AccessTier::kSharedHit);
  EXPECT_EQ(pool.disk_reads(), 1);
  EXPECT_EQ(pool.shared_hits(), 1);
}

TEST(BufferPool, OsTierServesSharedEvictions) {
  BufferPool pool(2, 16);
  // Fill shared buffers beyond capacity; early pages fall back to OS tier.
  for (int64_t p = 0; p < 6; ++p) {
    pool.Access(BufferPool::PageKey(1, PageKind::kHeap, -1, p));
  }
  const AccessTier tier =
      pool.Access(BufferPool::PageKey(1, PageKind::kHeap, -1, 0));
  EXPECT_EQ(tier, AccessTier::kOsHit);
}

TEST(BufferPool, DropCachesColdAgain) {
  BufferPool pool(8, 16);
  const uint64_t key = BufferPool::PageKey(2, PageKind::kIndexLeaf, 3, 5);
  pool.Access(key);
  pool.DropCaches();
  EXPECT_EQ(pool.Access(key), AccessTier::kDisk);
}

TEST(BufferPool, DropSharedKeepsOsTier) {
  BufferPool pool(8, 16);
  const uint64_t key = BufferPool::PageKey(2, PageKind::kHeap, -1, 5);
  pool.Access(key);
  pool.DropSharedBuffers();
  EXPECT_EQ(pool.Access(key), AccessTier::kOsHit);
}

TEST(BufferPool, PageKeyDistinguishesComponents) {
  const uint64_t heap = BufferPool::PageKey(1, PageKind::kHeap, -1, 7);
  const uint64_t leaf = BufferPool::PageKey(1, PageKind::kIndexLeaf, 0, 7);
  const uint64_t leaf_other_col = BufferPool::PageKey(1, PageKind::kIndexLeaf, 1, 7);
  const uint64_t other_table = BufferPool::PageKey(2, PageKind::kHeap, -1, 7);
  const uint64_t other_page = BufferPool::PageKey(1, PageKind::kHeap, -1, 8);
  EXPECT_NE(heap, leaf);
  EXPECT_NE(leaf, leaf_other_col);
  EXPECT_NE(heap, other_table);
  EXPECT_NE(heap, other_page);
}

// Components that do not fit their bits would alias another page: a
// column of 63 is the heap marker, larger columns and tables wrap. Pages
// stop at kMaxPages, the range the page directory serves.
TEST(BufferPoolDeathTest, PageKeyRejectsComponentsThatAlias) {
  EXPECT_EQ(BufferPool::PageKey(255, PageKind::kIndexLeaf, 62,
                                BufferPool::kMaxPages - 1),
            (255ULL << 56) | (1ULL << 54) | (62ULL << 48) |
                static_cast<uint64_t>(BufferPool::kMaxPages - 1));
  EXPECT_DEATH(BufferPool::PageKey(1, PageKind::kIndexLeaf, 63, 0), "CHECK");
  EXPECT_DEATH(BufferPool::PageKey(1, PageKind::kIndexLeaf, 64, 0), "CHECK");
  EXPECT_DEATH(BufferPool::PageKey(1, PageKind::kHeap, -2, 0), "CHECK");
  EXPECT_DEATH(BufferPool::PageKey(256, PageKind::kHeap, -1, 0), "CHECK");
  EXPECT_DEATH(BufferPool::PageKey(-1, PageKind::kHeap, -1, 0), "CHECK");
  EXPECT_DEATH(
      BufferPool::PageKey(1, PageKind::kHeap, -1, BufferPool::kMaxPages),
      "CHECK");
  EXPECT_DEATH(BufferPool::PageKey(1, PageKind::kHeap, -1, int64_t{1} << 40),
               "CHECK");
  EXPECT_DEATH(BufferPool::PageKey(1, PageKind::kHeap, -1, int64_t{1} << 48),
               "CHECK");
  EXPECT_DEATH(BufferPool::PageKey(1, PageKind::kHeap, -1, -1), "CHECK");
}

// Every page PageKey accepts is served, the last one included, next to the
// first page of the same segment.
TEST(BufferPool, ServesTheWholePageRange) {
  BufferPool pool(4, 8);
  const uint64_t first = BufferPool::PageKey(3, PageKind::kHeap, -1, 0);
  const uint64_t last =
      BufferPool::PageKey(3, PageKind::kHeap, -1, BufferPool::kMaxPages - 1);
  EXPECT_EQ(pool.Access(first), AccessTier::kDisk);
  EXPECT_EQ(pool.Access(last), AccessTier::kDisk);
  EXPECT_EQ(pool.Access(first), AccessTier::kSharedHit);
  EXPECT_EQ(pool.Access(last), AccessTier::kSharedHit);
  EXPECT_EQ(pool.resident_pages(), 2);
}

/// AccessMany must be n Access calls: the same key stream fed to one pool
/// key by key and to another in random batches (empty ones included,
/// batches crossing segments and runs within one) must agree on every
/// batch's tier counts, every counter and size, the metrics, the recorded
/// key log, and the tiers of a follow-up stream. Both bench/micro_engine
/// buffer-replay sizings: one that never fills, one where both tiers evict.
TEST(BufferPoolTest, AccessManyMatchesAccess) {
  const std::pair<int64_t, int64_t> regimes[] = {{131072, 262144},
                                                 {512, 4096}};
  for (const auto& [shared_pages, os_pages] : regimes) {
    SCOPED_TRACE(shared_pages);
    // Runs of 1..64 keys in one segment (six tables, heap or one of two
    // index columns), either consecutive pages or random ones.
    util::Rng rng(static_cast<uint64_t>(shared_pages));
    const int64_t domain = os_pages / 2;
    std::vector<uint64_t> stream;
    while (stream.size() < 200000) {
      const auto table = static_cast<catalog::TableId>(rng.UniformInt(0, 5));
      const int64_t column = rng.UniformInt(-1, 1);
      const PageKind kind = column < 0 ? PageKind::kHeap : PageKind::kIndexLeaf;
      const int64_t run = rng.UniformInt(1, 64);
      const bool consecutive = rng.Bernoulli(0.5);
      const int64_t first = rng.UniformInt(0, domain - 1);
      for (int64_t i = 0; i < run; ++i) {
        const int64_t page =
            consecutive ? (first + i) % domain : rng.UniformInt(0, domain - 1);
        stream.push_back(BufferPool::PageKey(
            table, kind, static_cast<catalog::ColumnId>(column), page));
      }
    }

    BufferPool single(shared_pages, os_pages);
    BufferPool batched(shared_pages, os_pages);
    obs::MetricsRegistry single_metrics;
    obs::MetricsRegistry batched_metrics;
    std::vector<uint64_t> single_log;
    std::vector<uint64_t> batched_log;
    single.RecordAccesses(&single_log);
    batched.RecordAccesses(&batched_log);
    for (size_t begin = 0; begin < stream.size();) {
      const size_t n = std::min<size_t>(
          static_cast<size_t>(rng.UniformInt(0, 300)), stream.size() - begin);
      BufferPool::TierCounts expected;
      {
        obs::MetricsScope scope(&single_metrics);
        for (size_t i = begin; i < begin + n; ++i) {
          switch (single.Access(stream[i])) {
            case AccessTier::kSharedHit:
              ++expected.shared_hits;
              break;
            case AccessTier::kOsHit:
              ++expected.os_hits;
              break;
            case AccessTier::kDisk:
              ++expected.disk_reads;
              break;
          }
        }
      }
      BufferPool::TierCounts got;
      {
        obs::MetricsScope scope(&batched_metrics);
        got = batched.AccessMany(stream.data() + begin,
                                 static_cast<int64_t>(n));
      }
      ASSERT_EQ(got.shared_hits, expected.shared_hits) << "batch at " << begin;
      ASSERT_EQ(got.os_hits, expected.os_hits) << "batch at " << begin;
      ASSERT_EQ(got.disk_reads, expected.disk_reads) << "batch at " << begin;
      ASSERT_EQ(batched.shared_hits(), single.shared_hits());
      ASSERT_EQ(batched.os_hits(), single.os_hits());
      ASSERT_EQ(batched.disk_reads(), single.disk_reads());
      ASSERT_EQ(batched.evictions(), single.evictions());
      ASSERT_EQ(batched.shared_size(), single.shared_size());
      ASSERT_EQ(batched.os_size(), single.os_size());
      ASSERT_EQ(batched.resident_pages(), single.resident_pages());
      begin += n;
    }
    single.RecordAccesses(nullptr);
    batched.RecordAccesses(nullptr);
    EXPECT_EQ(batched_log, single_log);
    EXPECT_EQ(batched_log, stream);
    EXPECT_GT(single.evictions(), 0);
    for (const obs::Counter c :
         {obs::Counter::kBufferSharedHits, obs::Counter::kBufferOsHits,
          obs::Counter::kBufferDiskReads, obs::Counter::kBufferEvictions}) {
      EXPECT_EQ(batched_metrics.Get(c), single_metrics.Get(c));
    }
    EXPECT_EQ(batched_metrics.Get(obs::Counter::kBufferEvictions),
              single.evictions());
    // Same recency order: a follow-up stream is served from the same tiers.
    for (int i = 0; i < 20000; ++i) {
      const uint64_t key = stream[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(stream.size()) - 1))];
      ASSERT_EQ(batched.Access(key), single.Access(key)) << "follow-up " << i;
    }
  }
}

/// Reference model for BufferPool: the pool as it was before it kept one
/// page table, two LruCaches touched with the same key on every access.
class ReferencePool {
 public:
  ReferencePool(int64_t shared_pages, int64_t os_pages)
      : shared_(shared_pages), os_(os_pages) {}

  /// Returns the tier; adds the access's evictions to `*evicted`.
  AccessTier Access(uint64_t key, int64_t* evicted) {
    const int64_t before = evictions();
    AccessTier tier;
    if (shared_.Touch(key)) {
      ++shared_hits_;
      os_.Touch(key);
      tier = AccessTier::kSharedHit;
    } else if (os_.Touch(key)) {
      ++os_hits_;
      tier = AccessTier::kOsHit;
    } else {
      ++disk_reads_;
      tier = AccessTier::kDisk;
    }
    *evicted += evictions() - before;
    return tier;
  }

  void DropCaches() {
    shared_.Clear();
    os_.Clear();
  }
  void DropSharedBuffers() { shared_.Clear(); }
  void Resize(int64_t shared_pages, int64_t os_pages) {
    shared_.Resize(shared_pages);
    os_.Resize(os_pages);
  }

  bool InShared(uint64_t key) const { return shared_.Contains(key); }
  bool InOs(uint64_t key) const { return os_.Contains(key); }
  int64_t shared_capacity() const { return shared_.capacity(); }
  int64_t os_capacity() const { return os_.capacity(); }
  int64_t shared_hits() const { return shared_hits_; }
  int64_t os_hits() const { return os_hits_; }
  int64_t disk_reads() const { return disk_reads_; }
  int64_t evictions() const { return shared_.evictions() + os_.evictions(); }

 private:
  LruCache shared_;
  LruCache os_;
  int64_t shared_hits_ = 0;
  int64_t os_hits_ = 0;
  int64_t disk_reads_ = 0;
};

constexpr int64_t kPoolCapacities[] = {0, 1, 2, 7, 64, 1000};

/// Random page streams, interleaved with DropSharedBuffers, DropCaches and
/// TryResize, must match the two-LRU reference on every access's tier, on
/// every counter, and on the kBufferEvictions metric. Half the draws come
/// from a hot set no larger than the smaller tier, half from a domain twice
/// the larger one, spread over heap and index-leaf segments of five
/// tables, so hits in either tier, demotions from either tier, and (with
/// shared > OS) shared pages the OS tier has dropped all occur.
class BufferPoolReferenceModel
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(BufferPoolReferenceModel, MatchesTwoLruPool) {
  const auto [shared_pages, os_pages] = GetParam();
  const int64_t domain = 2 * std::max(shared_pages, os_pages) + 4;
  const int64_t hot = std::min(shared_pages, os_pages) + 1;
  auto key_of = [](int64_t k) {
    const auto table = static_cast<catalog::TableId>(k % 5);
    if (k % 3 == 0) {
      return BufferPool::PageKey(table, PageKind::kIndexLeaf,
                                 static_cast<catalog::ColumnId>(k % 2), k / 15);
    }
    return BufferPool::PageKey(table, PageKind::kHeap, -1, k / 5);
  };
  util::Rng rng(static_cast<uint64_t>(shared_pages * 1009 + os_pages));
  obs::MetricsRegistry metrics;
  obs::MetricsScope scope(&metrics);
  BufferPool pool(shared_pages, os_pages);
  ReferencePool model(shared_pages, os_pages);
  int64_t model_access_evictions = 0;
  for (int step = 0; step < 20000; ++step) {
    const double op = rng.Uniform();
    if (op < 0.002) {
      pool.DropSharedBuffers();
      model.DropSharedBuffers();
    } else if (op < 0.003) {
      pool.DropCaches();
      model.DropCaches();
    } else if (op < 0.004) {
      const int64_t s = kPoolCapacities[rng.UniformInt(0, 5)];
      const int64_t o = kPoolCapacities[rng.UniformInt(0, 5)];
      EXPECT_FALSE(pool.TryResize(-1, o).ok());  // rejected, state untouched
      ASSERT_TRUE(pool.TryResize(s, o).ok());
      model.Resize(s, o);
    } else {
      const int64_t k = rng.Bernoulli(0.5) ? rng.UniformInt(0, hot - 1)
                                           : rng.UniformInt(0, domain - 1);
      const uint64_t key = key_of(k);
      ASSERT_EQ(pool.Access(key), model.Access(key, &model_access_evictions))
          << "step " << step << " key " << key;
    }
    ASSERT_EQ(pool.shared_capacity(), model.shared_capacity());
    ASSERT_EQ(pool.os_capacity(), model.os_capacity());
    ASSERT_EQ(pool.shared_hits(), model.shared_hits()) << "step " << step;
    ASSERT_EQ(pool.os_hits(), model.os_hits()) << "step " << step;
    ASSERT_EQ(pool.disk_reads(), model.disk_reads()) << "step " << step;
    ASSERT_EQ(pool.evictions(), model.evictions()) << "step " << step;
    ASSERT_EQ(metrics.Get(obs::Counter::kBufferEvictions),
              model_access_evictions)
        << "step " << step;
    if (step % 97 == 0) {
      // Tier sizes, and the pages either tier holds counted key by key:
      // the pool keeps no page that neither tier holds.
      int64_t in_shared = 0;
      int64_t in_os = 0;
      int64_t in_either = 0;
      for (int64_t k = 0; k < domain; ++k) {
        in_shared += model.InShared(key_of(k));
        in_os += model.InOs(key_of(k));
        in_either += model.InShared(key_of(k)) || model.InOs(key_of(k));
      }
      ASSERT_EQ(pool.shared_size(), in_shared) << "step " << step;
      ASSERT_EQ(pool.os_size(), in_os) << "step " << step;
      ASSERT_EQ(pool.resident_pages(), in_either) << "step " << step;
    }
  }
  EXPECT_EQ(metrics.Get(obs::Counter::kBufferSharedHits), model.shared_hits());
  EXPECT_EQ(metrics.Get(obs::Counter::kBufferOsHits), model.os_hits());
  EXPECT_EQ(metrics.Get(obs::Counter::kBufferDiskReads), model.disk_reads());
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, BufferPoolReferenceModel,
    ::testing::Combine(::testing::ValuesIn(kPoolCapacities),
                       ::testing::ValuesIn(kPoolCapacities)));

/// The distinct keys of keys[0..n) in order of their last occurrence.
std::vector<uint64_t> LastTouches(const std::vector<uint64_t>& keys) {
  std::vector<uint64_t> last;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (std::find(keys.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  keys.end(), keys[i]) == keys.end()) {
      last.push_back(keys[i]);
    }
  }
  return last;
}

/// Everything a pool reports, for comparing two pools or one pool before
/// and after a call.
struct PoolState {
  int64_t shared_capacity, os_capacity, shared_size, os_size, resident;
  int64_t shared_hits, os_hits, disk_reads, evictions;
  bool operator==(const PoolState&) const = default;
};

PoolState StateOf(const BufferPool& pool) {
  return {pool.shared_capacity(), pool.os_capacity(), pool.shared_size(),
          pool.os_size(),         pool.resident_pages(), pool.shared_hits(),
          pool.os_hits(),         pool.disk_reads(),  pool.evictions()};
}

constexpr obs::Counter kPoolCounters[] = {
    obs::Counter::kBufferSharedHits, obs::Counter::kBufferOsHits,
    obs::Counter::kBufferDiskReads, obs::Counter::kBufferEvictions};

/// TryAccessDistinct must be exact: random batches with repeats, drawn from
/// page domains from one page to twice the larger tier, go through
/// TryAccessDistinct (AccessMany when it refuses) on one pool and through
/// one Access per key on a twin, with DropSharedBuffers, DropCaches and
/// TryResize interleaved. The pools must agree on every batch's tier
/// counts, every counter, tier size and metric, and on the tiers of a
/// follow-up stream; a refusal must leave the pool as it was.
class BufferPoolDistinctBatch
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(BufferPoolDistinctBatch, MatchesAccessPerKey) {
  const auto [shared_pages, os_pages] = GetParam();
  util::Rng rng(static_cast<uint64_t>(shared_pages * 7919 + os_pages));
  const int64_t small = std::min(shared_pages, os_pages);
  const int64_t domains[] = {1, 3, small + 1,
                             2 * std::max(shared_pages, os_pages) + 4};
  auto key_of = [](int64_t k) {
    const auto table = static_cast<catalog::TableId>(k % 3);
    return BufferPool::PageKey(table, PageKind::kHeap, -1, k / 3);
  };
  BufferPool batched(shared_pages, os_pages);
  BufferPool single(shared_pages, os_pages);
  obs::MetricsRegistry batched_metrics;
  obs::MetricsRegistry single_metrics;
  int64_t applied = 0;
  int64_t refused = 0;
  for (int step = 0; step < 3000; ++step) {
    const double op = rng.Uniform();
    if (op < 0.02) {
      batched.DropSharedBuffers();
      single.DropSharedBuffers();
    } else if (op < 0.03) {
      batched.DropCaches();
      single.DropCaches();
    } else if (op < 0.04) {
      const int64_t s = kPoolCapacities[rng.UniformInt(0, 5)];
      const int64_t o = kPoolCapacities[rng.UniformInt(0, 5)];
      ASSERT_TRUE(batched.TryResize(s, o).ok());
      ASSERT_TRUE(single.TryResize(s, o).ok());
    } else {
      const int64_t domain = domains[rng.UniformInt(0, 3)];
      std::vector<uint64_t> keys(static_cast<size_t>(rng.UniformInt(0, 40)));
      for (uint64_t& key : keys) key = key_of(rng.UniformInt(0, domain - 1));
      const std::vector<uint64_t> last = LastTouches(keys);
      const auto n = static_cast<int64_t>(keys.size());
      const auto m = static_cast<int64_t>(last.size());
      // The rule, from the outside.
      const bool rule = batched.shared_size() == batched.resident_pages() &&
                        batched.os_size() == batched.resident_pages() &&
                        batched.resident_pages() + m <=
                            std::min(batched.shared_capacity(),
                                     batched.os_capacity());

      BufferPool::TierCounts expected;
      {
        obs::MetricsScope scope(&single_metrics);
        for (const uint64_t key : keys) {
          switch (single.Access(key)) {
            case AccessTier::kSharedHit:
              ++expected.shared_hits;
              break;
            case AccessTier::kOsHit:
              ++expected.os_hits;
              break;
            case AccessTier::kDisk:
              ++expected.disk_reads;
              break;
          }
        }
      }
      BufferPool::TierCounts got;
      {
        obs::MetricsScope scope(&batched_metrics);
        const PoolState before = StateOf(batched);
        const int64_t touches_before = batched.touches();
        int64_t metrics_before[std::size(kPoolCounters)];
        for (size_t c = 0; c < std::size(kPoolCounters); ++c) {
          metrics_before[c] = batched_metrics.Get(kPoolCounters[c]);
        }
        const bool ok = batched.TryAccessDistinct(last.data(), m, n, &got);
        ASSERT_EQ(ok, rule) << "step " << step;
        if (ok) {
          ++applied;
          ASSERT_EQ(batched.touches(), touches_before + m) << "step " << step;
        } else {
          ++refused;
          ASSERT_EQ(StateOf(batched), before) << "step " << step;
          ASSERT_EQ(batched.touches(), touches_before) << "step " << step;
          for (size_t c = 0; c < std::size(kPoolCounters); ++c) {
            ASSERT_EQ(batched_metrics.Get(kPoolCounters[c]), metrics_before[c])
                << "step " << step;
          }
          got = batched.AccessMany(keys.data(), n);
        }
      }
      ASSERT_EQ(got.shared_hits, expected.shared_hits) << "step " << step;
      ASSERT_EQ(got.os_hits, expected.os_hits) << "step " << step;
      ASSERT_EQ(got.disk_reads, expected.disk_reads) << "step " << step;
    }
    ASSERT_EQ(StateOf(batched), StateOf(single)) << "step " << step;
    for (const obs::Counter c : kPoolCounters) {
      ASSERT_EQ(batched_metrics.Get(c), single_metrics.Get(c))
          << "step " << step;
    }
  }
  // Same recency order: a follow-up stream is served from the same tiers.
  const int64_t domain = domains[3];
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = key_of(rng.UniformInt(0, domain - 1));
    ASSERT_EQ(batched.Access(key), single.Access(key)) << "follow-up " << i;
  }
  EXPECT_GT(refused, 0);
  if (small >= 2) {
    EXPECT_GT(applied, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, BufferPoolDistinctBatch,
    ::testing::Combine(::testing::ValuesIn(kPoolCapacities),
                       ::testing::ValuesIn(kPoolCapacities)));

/// Runs `setup` on two pools, offers `last` (m distinct keys of an n-key
/// batch) to one of them through TryAccessDistinct, and expects a refusal
/// that changed nothing: same state, no metric, same follow-up tiers.
void ExpectRefused(const std::function<void(BufferPool&)>& setup,
                   int64_t shared_pages, int64_t os_pages,
                   const std::vector<uint64_t>& last, int64_t n) {
  BufferPool offered(shared_pages, os_pages);
  BufferPool twin(shared_pages, os_pages);
  setup(offered);
  setup(twin);
  const int64_t touches = offered.touches();
  obs::MetricsRegistry metrics;
  BufferPool::TierCounts counts{-1, -1, -1};
  {
    obs::MetricsScope scope(&metrics);
    EXPECT_FALSE(offered.TryAccessDistinct(
        last.data(), static_cast<int64_t>(last.size()), n, &counts));
  }
  EXPECT_EQ(counts.shared_hits, -1);  // untouched
  EXPECT_EQ(StateOf(offered), StateOf(twin));
  EXPECT_EQ(offered.touches(), touches);
  for (const obs::Counter c : kPoolCounters) EXPECT_EQ(metrics.Get(c), 0);
  for (int64_t p = 0; p < 24; ++p) {
    const uint64_t key = BufferPool::PageKey(1, PageKind::kHeap, -1, p % 12);
    EXPECT_EQ(offered.Access(key), twin.Access(key)) << "follow-up " << p;
  }
}

std::vector<uint64_t> HeapKeys(int64_t first, int64_t count) {
  std::vector<uint64_t> keys;
  for (int64_t p = first; p < first + count; ++p) {
    keys.push_back(BufferPool::PageKey(1, PageKind::kHeap, -1, p));
  }
  return keys;
}

// Each condition of the rule, and recording, refuses on its own; the same
// batch one page smaller (or with recording off) is taken.
TEST(BufferPoolTest, TryAccessDistinctRefusals) {
  auto touch = [](int64_t count) {
    return [count](BufferPool& pool) {
      for (const uint64_t key : HeapKeys(0, count)) pool.Access(key);
    };
  };
  BufferPool::TierCounts counts;

  // After DropSharedBuffers the OS tier holds pages shared buffers do not.
  ExpectRefused(
      [&](BufferPool& pool) {
        touch(3)(pool);
        pool.DropSharedBuffers();
      },
      8, 8, HeapKeys(0, 1), 2);

  // resident + m one over the smaller capacity, either tier the smaller.
  for (const auto& [shared_pages, os_pages] :
       {std::pair<int64_t, int64_t>{8, 16}, {16, 8}}) {
    SCOPED_TRACE(shared_pages);
    ExpectRefused(touch(5), shared_pages, os_pages, HeapKeys(3, 4), 9);
    BufferPool pool(shared_pages, os_pages);
    touch(5)(pool);
    ASSERT_TRUE(pool.TryAccessDistinct(HeapKeys(3, 3).data(), 3, 9, &counts));
    EXPECT_EQ(counts.shared_hits, 8);  // two resident pages, then 6 repeats
    EXPECT_EQ(counts.os_hits, 0);
    EXPECT_EQ(counts.disk_reads, 1);
    EXPECT_EQ(pool.resident_pages(), 6);
    EXPECT_EQ(pool.evictions(), 0);
  }

  // A tier of capacity 0 has no room for any page.
  ExpectRefused([](BufferPool&) {}, 0, 8, HeapKeys(0, 1), 1);
  ExpectRefused([](BufferPool&) {}, 8, 0, HeapKeys(0, 1), 1);

  // Recording must log every key of the batch, so it refuses: the offered
  // pool's log holds only the follow-up stream, as its twin's does.
  std::vector<uint64_t> logs[2];
  size_t recording = 0;
  ExpectRefused(
      [&](BufferPool& pool) { pool.RecordAccesses(&logs[recording++]); }, 8,
      8, HeapKeys(0, 2), 3);
  EXPECT_EQ(logs[0], logs[1]);
  BufferPool pool(8, 8);
  pool.RecordAccesses(&logs[0]);
  pool.RecordAccesses(nullptr);
  ASSERT_TRUE(pool.TryAccessDistinct(HeapKeys(0, 2).data(), 2, 3, &counts));
  EXPECT_EQ(counts.disk_reads, 2);
  EXPECT_EQ(counts.shared_hits, 1);
  EXPECT_EQ(pool.touches(), 2);
}

/// Property sweep: LRU semantics — after touching keys 0..n-1 in order with
/// capacity c, exactly the last c keys are resident.
class LruProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LruProperty, LastCKeysResident) {
  const auto [capacity, touches] = GetParam();
  LruCache cache(capacity);
  for (int i = 0; i < touches; ++i) cache.Touch(static_cast<uint64_t>(i));
  for (int i = 0; i < touches; ++i) {
    const bool expected = i >= touches - capacity;
    EXPECT_EQ(cache.Contains(static_cast<uint64_t>(i)), expected)
        << "capacity=" << capacity << " touches=" << touches << " key=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LruProperty,
    ::testing::Combine(::testing::Values(1, 2, 5, 16),
                       ::testing::Values(1, 4, 17, 64)));

/// Reference model for LruCache: the node-based std::list + unordered_map
/// LRU that the flat implementation replaced, kept verbatim in behaviour.
class ReferenceLru {
 public:
  explicit ReferenceLru(int64_t capacity) : capacity_(capacity) {}

  bool Touch(uint64_t key, uint64_t* evicted) {
    if (capacity_ == 0) return false;
    auto it = positions_.find(key);
    if (it != positions_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    if (static_cast<int64_t>(positions_.size()) >= capacity_) {
      *evicted = order_.back();
      positions_.erase(order_.back());
      order_.pop_back();
      ++evictions_;
    }
    order_.push_front(key);
    positions_[key] = order_.begin();
    return false;
  }

  bool Contains(uint64_t key) const { return positions_.count(key) > 0; }

  void Clear() {
    evictions_ += static_cast<int64_t>(positions_.size());
    order_.clear();
    positions_.clear();
  }

  void Resize(int64_t capacity) {
    capacity_ = capacity;
    Clear();
  }

  int64_t size() const { return static_cast<int64_t>(positions_.size()); }
  int64_t capacity() const { return capacity_; }
  int64_t evictions() const { return evictions_; }

 private:
  int64_t capacity_;
  int64_t evictions_ = 0;
  std::list<uint64_t> order_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> positions_;
};

/// Random Touch streams, interleaved with Clear() and TryResize(), must
/// match the reference model on every return value, every evicted key,
/// size(), evictions() and Contains(). Keys are drawn from a domain 2-4x
/// the capacity, half of them page keys (high table/kind bits set), so
/// hits, evictions, slot-table growth and backward-shift deletes all occur.
class LruReferenceModel
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(LruReferenceModel, MatchesListImplementation) {
  const auto [capacity, domain_factor] = GetParam();
  const int64_t domain = std::max<int64_t>(capacity, 1) * domain_factor;
  auto key_of = [](int64_t k) {
    if (k % 2 == 0) return static_cast<uint64_t>(k);
    return BufferPool::PageKey(static_cast<catalog::TableId>(k % 7),
                               PageKind::kHeap, -1, k / 7);
  };
  util::Rng rng(static_cast<uint64_t>(capacity * 31 + domain_factor));
  LruCache cache(capacity);
  ReferenceLru model(capacity);
  constexpr uint64_t kUnset = ~0ULL;
  for (int step = 0; step < 20000; ++step) {
    const double op = rng.Uniform();
    if (op < 0.001) {
      cache.Clear();
      model.Clear();
    } else if (op < 0.002) {
      // Stay near the swept capacity so the key domain keeps its ratio.
      const int64_t resized = std::max<int64_t>(
          0, model.capacity() + rng.UniformInt(-1, 1) * (capacity / 2 + 1));
      ASSERT_TRUE(cache.TryResize(resized).ok());
      model.Resize(resized);
      EXPECT_FALSE(cache.TryResize(-1).ok());  // rejected, state untouched
    } else {
      const uint64_t key = key_of(rng.UniformInt(0, domain - 1));
      uint64_t cache_evicted = kUnset;
      uint64_t model_evicted = kUnset;
      ASSERT_EQ(cache.Touch(key, &cache_evicted),
                model.Touch(key, &model_evicted))
          << "step " << step << " key " << key;
      ASSERT_EQ(cache_evicted, model_evicted) << "step " << step;
    }
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
    ASSERT_EQ(cache.capacity(), model.capacity()) << "step " << step;
    ASSERT_EQ(cache.evictions(), model.evictions()) << "step " << step;
    const uint64_t probe = key_of(rng.UniformInt(0, domain - 1));
    ASSERT_EQ(cache.Contains(probe), model.Contains(probe))
        << "step " << step << " key " << probe;
  }
  for (int64_t k = 0; k < domain; ++k) {
    ASSERT_EQ(cache.Contains(key_of(k)), model.Contains(key_of(k)))
        << "key " << key_of(k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LruReferenceModel,
    ::testing::Combine(::testing::Values<int64_t>(0, 1, 2, 7, 64, 1000),
                       ::testing::Values<int64_t>(2, 3, 4)));

}  // namespace
}  // namespace lqolab::storage
