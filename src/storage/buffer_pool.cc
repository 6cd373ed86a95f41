#include "storage/buffer_pool.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "storage/table.h"
#include "util/check.h"

namespace lqolab::storage {

namespace {

constexpr uint64_t kPageMask = (uint64_t{1} << 48) - 1;
constexpr catalog::ColumnId kHeapColumnBits = 63;

static_assert(static_cast<int>(AccessTier::kSharedHit) == 0 &&
                  static_cast<int>(AccessTier::kOsHit) == 1 &&
                  static_cast<int>(AccessTier::kDisk) == 2,
              "AccessMany counts tiers in an array indexed by AccessTier");

static_assert(BufferPool::kMaxPages * kRowsPerPage >
                  int64_t{std::numeric_limits<RowId>::max()},
              "every heap page of a table must have a valid PageKey");

}  // namespace

// The per-key steps of Access and AccessMany. Each has two callers, so GCC
// would otherwise keep them out of line and pay a call per page.
#define LQOLAB_POOL_INLINE [[gnu::always_inline]] inline

BufferPool::BufferPool(int64_t shared_pages, int64_t os_pages) {
  LQOLAB_CHECK_GE(shared_pages, 0);
  LQOLAB_CHECK_GE(os_pages, 0);
  shared_.capacity = shared_pages;
  os_.capacity = os_pages;
}

uint64_t BufferPool::PageKey(catalog::TableId table, PageKind kind,
                             catalog::ColumnId index_column, int64_t page_no) {
  // Layout: [table:8][kind:2][column:6][page:48]; column 63 marks heap
  // pages, so index columns stop at 62.
  LQOLAB_CHECK_GE(table, 0);
  LQOLAB_CHECK_LE(table, 0xff);
  LQOLAB_CHECK_GE(index_column, catalog::kInvalidColumn);
  LQOLAB_CHECK_LT(index_column, kHeapColumnBits);
  LQOLAB_CHECK_GE(page_no, 0);
  LQOLAB_CHECK_LT(page_no, kMaxPages);
  const uint64_t column_bits = static_cast<uint64_t>(
      index_column < 0 ? kHeapColumnBits : index_column);
  return (static_cast<uint64_t>(table) << 56) |
         (static_cast<uint64_t>(kind) << 54) | (column_bits << 48) |
         static_cast<uint64_t>(page_no);
}

LQOLAB_POOL_INLINE std::vector<int32_t>& BufferPool::SegmentOf(
    uint64_t prefix) {
  const size_t index = static_cast<size_t>(prefix);
  if (index >= segment_of_.size()) segment_of_.resize(index + 1, kNull);
  if (segment_of_[index] == kNull) {
    segment_of_[index] = static_cast<int32_t>(segments_.size());
    segments_.emplace_back();
  }
  return segments_[static_cast<size_t>(segment_of_[index])];
}

LQOLAB_POOL_INLINE int32_t BufferPool::EntryOf(std::vector<int32_t>& chunks,
                                               uint64_t page) {
  const size_t chunk = static_cast<size_t>(page >> kChunkBits);
  if (chunk >= chunks.size()) chunks.resize(chunk + 1, kNull);
  if (chunks[chunk] == kNull) {
    LQOLAB_CHECK_LE(entries_.size() + kChunkPages,
                    static_cast<size_t>(std::numeric_limits<int32_t>::max()));
    chunks[chunk] = static_cast<int32_t>(entries_.size());
    entries_.resize(entries_.size() + kChunkPages, kNull);
  }
  return chunks[chunk] + static_cast<int32_t>(page & (kChunkPages - 1));
}

int64_t BufferPool::Admit(Tier& tier, bool Node::*held, int32_t node) {
  if (tier.capacity == 0) return 0;
  nodes_[static_cast<size_t>(node)].*held = true;
  if (tier.size < tier.capacity) {
    if (tier.size == 0) tier.tail = node;
    ++tier.size;
    return 0;
  }
  // Full: the tier is now the head plus all but its old tail, which sits
  // right behind the new tail.
  Node& victim = nodes_[static_cast<size_t>(tier.tail)];
  victim.*held = false;
  tier.tail = victim.prev;
  return 1;
}

void BufferPool::Unlink(int32_t node) {
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (n.prev != kNull) {
    nodes_[static_cast<size_t>(n.prev)].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNull) {
    nodes_[static_cast<size_t>(n.next)].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void BufferPool::PushFront(int32_t node) {
  Node& n = nodes_[static_cast<size_t>(node)];
  n.prev = kNull;
  n.next = head_;
  if (head_ != kNull) {
    nodes_[static_cast<size_t>(head_)].prev = node;
  } else {
    tail_ = node;
  }
  head_ = node;
}

void BufferPool::DropUnheldTail() {
  while (tail_ != kNull) {
    Node& n = nodes_[static_cast<size_t>(tail_)];
    if (n.in_shared || n.in_os) return;
    const int32_t node = tail_;
    Unlink(node);
    entries_[static_cast<size_t>(n.entry)] = kNull;
    n.next = free_;
    free_ = node;
    --resident_;
  }
}

LQOLAB_POOL_INLINE AccessTier BufferPool::Touch(int32_t entry,
                                                 int64_t* evicted) {
  int32_t node = entries_[static_cast<size_t>(entry)];
  bool was_shared = false;
  bool was_os = false;
  if (node == kNull) {
    if (free_ != kNull) {
      node = free_;
      free_ = nodes_[static_cast<size_t>(node)].next;
    } else {
      LQOLAB_CHECK_LT(nodes_.size(),
                      static_cast<size_t>(std::numeric_limits<int32_t>::max()));
      node = static_cast<int32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[static_cast<size_t>(node)] = {kNull, kNull, entry, false, false};
    entries_[static_cast<size_t>(entry)] = node;
    PushFront(node);
    ++resident_;
  } else {
    const Node& n = nodes_[static_cast<size_t>(node)];
    was_shared = n.in_shared;
    was_os = n.in_os;
    if (node != head_) {
      // A tier's tail moving to the front leaves its predecessor as the
      // tier's least recent page.
      if (node == shared_.tail) shared_.tail = n.prev;
      if (node == os_.tail) os_.tail = n.prev;
      Unlink(node);
      PushFront(node);
    }
  }

  if (!was_shared) *evicted += Admit(shared_, &Node::in_shared, node);
  if (!was_os) *evicted += Admit(os_, &Node::in_os, node);
  DropUnheldTail();
  if (was_shared) return AccessTier::kSharedHit;
  return was_os ? AccessTier::kOsHit : AccessTier::kDisk;
}

AccessTier BufferPool::Access(uint64_t page_key) {
  if (access_log_ != nullptr) access_log_->push_back(page_key);
  int64_t evicted = 0;
  const AccessTier tier =
      Touch(EntryOf(SegmentOf(page_key >> 48), page_key & kPageMask),
            &evicted);
  TierCounts counts;
  if (tier == AccessTier::kSharedHit) {
    counts.shared_hits = 1;
  } else if (tier == AccessTier::kOsHit) {
    counts.os_hits = 1;
  } else {
    counts.disk_reads = 1;
  }
  Book(counts, evicted, 1);
  return tier;
}

LQOLAB_POOL_INLINE void BufferPool::TouchAll(const uint64_t* keys, int64_t n,
                                             int64_t* by_tier,
                                             int64_t* evicted) {
  for (int64_t i = 0; i < n;) {
    const uint64_t prefix = keys[i] >> 48;
    // No other segment is allocated during the run, so `chunks` stays put.
    std::vector<int32_t>& chunks = SegmentOf(prefix);
    do {
      const AccessTier tier = Touch(EntryOf(chunks, keys[i] & kPageMask),
                                    evicted);
      ++by_tier[static_cast<int>(tier)];
    } while (++i < n && keys[i] >> 48 == prefix);
  }
}

BufferPool::TierCounts BufferPool::AccessMany(const uint64_t* keys,
                                              int64_t n) {
  LQOLAB_CHECK_GE(n, 0);
  if (access_log_ != nullptr) {
    access_log_->insert(access_log_->end(), keys, keys + n);
  }
  int64_t by_tier[3] = {0, 0, 0};  // indexed by AccessTier
  int64_t evicted = 0;
  TouchAll(keys, n, by_tier, &evicted);
  const TierCounts counts{by_tier[0], by_tier[1], by_tier[2]};
  Book(counts, evicted, n);
  return counts;
}

bool BufferPool::TryAccessDistinct(const uint64_t* last_touches, int64_t m,
                                   int64_t n, TierCounts* counts) {
  LQOLAB_CHECK_GE(m, 0);
  LQOLAB_CHECK_GE(n, m);
  if (access_log_ != nullptr || shared_.size != resident_ ||
      os_.size != resident_ ||
      resident_ + m > std::min(shared_.capacity, os_.capacity)) {
    return false;
  }
  // Both tiers hold every resident page and have room for all m pages, so
  // no touch evicts: a page's first access is its one disk read, every
  // other access a shared hit, and the final order is by last touch.
  int64_t by_tier[3] = {0, 0, 0};  // indexed by AccessTier
  int64_t evicted = 0;
  TouchAll(last_touches, m, by_tier, &evicted);
  LQOLAB_DCHECK(evicted == 0 &&
                by_tier[static_cast<int>(AccessTier::kOsHit)] == 0);
  const int64_t misses = by_tier[static_cast<int>(AccessTier::kDisk)];
  *counts = {n - misses, 0, misses};
  Book(*counts, evicted, m);
  return true;
}

LQOLAB_POOL_INLINE void BufferPool::Book(const TierCounts& counts,
                                         int64_t evicted, int64_t touched) {
  touches_ += touched;
  shared_hits_ += counts.shared_hits;
  os_hits_ += counts.os_hits;
  disk_reads_ += counts.disk_reads;
  evictions_ += evicted;
  if (counts.shared_hits > 0) {
    obs::Count(obs::Counter::kBufferSharedHits, counts.shared_hits);
  }
  if (counts.os_hits > 0) {
    obs::Count(obs::Counter::kBufferOsHits, counts.os_hits);
  }
  if (counts.disk_reads > 0) {
    obs::Count(obs::Counter::kBufferDiskReads, counts.disk_reads);
  }
  if (evicted > 0) obs::Count(obs::Counter::kBufferEvictions, evicted);
}

void BufferPool::DropSharedBuffers() {
  evictions_ += shared_.size;
  for (int32_t node = head_; shared_.size > 0; --shared_.size) {
    Node& n = nodes_[static_cast<size_t>(node)];
    n.in_shared = false;
    node = n.next;
  }
  shared_.tail = kNull;
  DropUnheldTail();
}

void BufferPool::DropCaches() {
  evictions_ += shared_.size + os_.size;
  for (int32_t node = head_; node != kNull;) {
    const Node& n = nodes_[static_cast<size_t>(node)];
    entries_[static_cast<size_t>(n.entry)] = kNull;
    node = n.next;
  }
  nodes_.clear();
  resident_ = 0;
  free_ = kNull;
  head_ = kNull;
  tail_ = kNull;
  shared_.size = 0;
  shared_.tail = kNull;
  os_.size = 0;
  os_.tail = kNull;
}

void BufferPool::Resize(int64_t shared_pages, int64_t os_pages) {
  LQOLAB_CHECK(TryResize(shared_pages, os_pages).ok());
}

util::Status BufferPool::TryResize(int64_t shared_pages, int64_t os_pages) {
  // Validate both tiers before mutating either, so a failed resize never
  // leaves the pool half-resized (or even half-cleared).
  if (shared_pages < 0 || os_pages < 0) {
    return util::Status(util::StatusCode::kResourceExhausted,
                        "buffer pool sizing not satisfiable");
  }
  shared_.capacity = shared_pages;
  os_.capacity = os_pages;
  DropCaches();
  return util::Status::Ok();
}

}  // namespace lqolab::storage
