// Unit tests for the storage layer: columns, tables, indexes, LRU cache,
// two-tier buffer pool.

#include <algorithm>
#include <list>
#include <unordered_map>

#include <gtest/gtest.h>

#include "catalog/imdb_schema.h"
#include "storage/buffer_pool.h"
#include "storage/column.h"
#include "storage/index.h"
#include "storage/lru_cache.h"
#include "storage/table.h"
#include "util/rng.h"

namespace lqolab::storage {
namespace {

catalog::TableDef TwoColumnDef() {
  catalog::TableDef def;
  def.name = "t";
  def.columns = {{"id", catalog::ColumnType::kInt},
                 {"label", catalog::ColumnType::kString}};
  return def;
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

TEST_F(IndexTest, RangeQueries) {
  EXPECT_EQ(index_->Range(5, 10).size(), 4u);
  EXPECT_EQ(index_->CountRange(5, 10), 4);
  EXPECT_EQ(index_->CountRange(0, 15), 6);
  EXPECT_EQ(index_->CountRange(11, 14), 0);
  EXPECT_EQ(index_->CountRange(10, 5), 0);  // inverted range
}

TEST_F(IndexTest, MinMax) {
  EXPECT_EQ(index_->min_value(), 0);
  EXPECT_EQ(index_->max_value(), 15);
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
