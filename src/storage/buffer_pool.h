#ifndef LQOLAB_STORAGE_BUFFER_POOL_H_
#define LQOLAB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"
#include "util/status.h"

namespace lqolab::storage {

/// Which tier served a page access. The executor charges different virtual
/// costs per tier (see exec/cost_constants.h).
enum class AccessTier {
  kSharedHit,  ///< Found in shared buffers.
  kOsHit,      ///< Found in the OS page cache, promoted to shared buffers.
  kDisk,       ///< Read from disk, inserted into both tiers.
};

/// Kind of page for key derivation.
enum class PageKind { kHeap, kIndexLeaf };

/// Two-tier page-cache model: PostgreSQL shared buffers in front of the OS
/// page cache. Successive executions of the same query migrate its pages
/// disk -> OS cache -> shared buffers, which is the mechanism behind the
/// hot/cold-cache convergence the paper measures in Fig. 4.
///
/// Each tier is an exact LRU over the same key stream: every access makes
/// its page the most recent in both. So each tier holds the most recent
/// min(capacity, distinct pages since the tier was last dropped) pages,
/// and both are prefixes of one recency list of every page either tier
/// holds. The pool keeps that one list, a size and a tail per tier, and a
/// per-node flag per tier; an access is one directory lookup, one
/// move-to-front and at most one demotion (the tier's eviction) per tier.
/// The executor charges pages in batches (AccessMany): each key still takes
/// those steps in order, but the counters and metrics are booked once per
/// batch and a run of keys in one segment looks the segment up once. A
/// batch that cannot evict is charged by its distinct pages instead
/// (TryAccessDistinct), which leaves the same tiers and counts.
///
/// The page directory maps a key to its node in two levels: PageKey's top
/// 16 bits (table, kind, index column) pick a segment, and the page number
/// picks an entry in a chunk of kChunkPages entries. Chunks are allocated
/// on first touch, so directory memory follows the pages touched; a
/// segment's chunk table spans its highest page touched (4 bytes per
/// kChunkPages pages, at most 1 MiB below kMaxPages). On recorded job and
/// tpch page streams it beats one hashed lookup per access by 1.3-2.4x,
/// since a scan's consecutive pages share a chunk (docs/benchmarks.md, "One
/// page table for both cache tiers").
class BufferPool {
 public:
  /// Capacities in pages for the two tiers.
  BufferPool(int64_t shared_pages, int64_t os_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Page numbers PageKey accepts: [0, kMaxPages). A table of 2^31 int32
  /// row ids spans 2^26 pages of kRowsPerPage rows.
  static constexpr int64_t kMaxPages = int64_t{1} << 26;

  /// Encodes a page identity. `index_column` distinguishes index trees of
  /// the same table; pass kInvalidColumn for heap pages. Aborts when a
  /// component is out of range (table > 255, index column > 62, page
  /// outside [0, kMaxPages)) instead of aliasing another page or growing
  /// the page directory without bound.
  static uint64_t PageKey(catalog::TableId table, PageKind kind,
                          catalog::ColumnId index_column, int64_t page_no);

  /// How many accesses of a batch each tier served.
  struct TierCounts {
    int64_t shared_hits = 0;
    int64_t os_hits = 0;
    int64_t disk_reads = 0;
  };

  /// Touches a page; returns the tier that served it. The page becomes the
  /// most recent in both tiers. The one-key case of AccessMany (same touch
  /// routine, same counters).
  AccessTier Access(uint64_t page_key);

  /// Touches keys[0..n) in order, exactly as n Access calls would (same
  /// tiers, evictions and recorded keys), and returns how many each tier
  /// served. The hit/miss/eviction counters and their obs metrics move
  /// once per batch, and a run of keys with the same top 16 bits resolves
  /// its directory segment once. This is how the executor charges pages.
  TierCounts AccessMany(const uint64_t* keys, int64_t n);

  /// Charges a batch of n accesses by its m distinct pages, when that is
  /// exact; `last_touches` holds the distinct keys in order of their last
  /// access in the batch. Applies only when every resident page is in both
  /// tiers (shared_size() == os_size() == resident_pages()) and
  /// resident_pages() + m <= min(shared_capacity(), os_capacity()): then
  /// no access can evict, a page's first access is its only disk read and
  /// every other access a shared hit, and the recency order after the
  /// batch depends only on each page's last access. So touching the m
  /// keys once each leaves the pool exactly as n Access calls would; it
  /// books n - misses shared hits and `misses` disk reads, sets `*counts`
  /// and returns true. Otherwise, and while RecordAccesses is on (the log
  /// must keep every key), it returns false and changes nothing; charge
  /// the batch with AccessMany.
  bool TryAccessDistinct(const uint64_t* last_touches, int64_t m, int64_t n,
                         TierCounts* counts);

  /// Appends every key passed to Access or AccessMany to `*log` until
  /// called again with nullptr; recording changes no tier decision, and
  /// TryAccessDistinct refuses while it is on. bench/micro_engine uses it
  /// to replay the page stream a real execution charges.
  void RecordAccesses(std::vector<uint64_t>* log) { access_log_ = log; }

  /// Drops both tiers (full cold cache).
  void DropCaches();

  /// Drops shared buffers only (restart of the DBMS process; the OS cache
  /// survives).
  void DropSharedBuffers();

  /// Reconfigures tier capacities; clears both tiers. Aborts on an
  /// unsatisfiable sizing; use TryResize where allocation pressure must
  /// degrade to a typed error.
  void Resize(int64_t shared_pages, int64_t os_pages);

  /// Like Resize, but validates both capacities first and returns
  /// kResourceExhausted — leaving the pool fully unchanged, contents
  /// included — when either cannot be satisfied.
  util::Status TryResize(int64_t shared_pages, int64_t os_pages);

  int64_t shared_capacity() const { return shared_.capacity; }
  int64_t os_capacity() const { return os_.capacity; }
  /// Pages each tier holds, and pages either tier holds. Only the
  /// reference-model tests read these; the executor sees the tiers through
  /// Access results and the counters below.
  int64_t shared_size() const { return shared_.size; }
  int64_t os_size() const { return os_.size; }
  int64_t resident_pages() const { return resident_; }

  int64_t shared_hits() const { return shared_hits_; }
  int64_t os_hits() const { return os_hits_; }
  int64_t disk_reads() const { return disk_reads_; }
  /// Pages evicted from either tier over the pool's lifetime, including
  /// pages dropped by DropCaches, DropSharedBuffers and resizes.
  int64_t evictions() const { return evictions_; }
  /// Touches of the recency list over the pool's lifetime: one per key of
  /// Access and AccessMany, one per distinct key of TryAccessDistinct.
  /// bench/micro_engine reports it to show the distinct-page path ran.
  int64_t touches() const { return touches_; }

 private:
  static constexpr int32_t kNull = -1;  // empty directory entry, null link
  static constexpr int kChunkBits = 8;
  static constexpr int64_t kChunkPages = int64_t{1} << kChunkBits;

  struct Node {
    int32_t prev;   // towards the head (more recent)
    int32_t next;   // towards the tail (less recent)
    int32_t entry;  // directory entry pointing at this node
    bool in_shared;
    bool in_os;
  };

  /// One tier: a prefix of the recency list.
  struct Tier {
    int64_t capacity = 0;
    int64_t size = 0;
    int32_t tail = kNull;  // least recent node the tier holds
  };

  /// Chunk table of the directory segment `prefix` (PageKey's top 16
  /// bits), allocating the segment on first touch.
  std::vector<int32_t>& SegmentOf(uint64_t prefix);

  /// Index into entries_ of page `page` of the segment whose chunk table is
  /// `chunks`, allocating its chunk on first touch.
  int32_t EntryOf(std::vector<int32_t>& chunks, uint64_t page);

  /// Makes the page of directory entry `entry` the most recent in both
  /// tiers; returns the tier that served it and adds the pages it evicted
  /// to `*evicted`. Counters are left to the caller.
  AccessTier Touch(int32_t entry, int64_t* evicted);

  /// Touches keys[0..n) in order, adding each tier served to
  /// by_tier[AccessTier] and the pages evicted to `*evicted`; a run of keys
  /// in one segment looks the segment up once.
  void TouchAll(const uint64_t* keys, int64_t n, int64_t* by_tier,
                int64_t* evicted);

  /// Adds one access's or one batch's tier counts, evictions and list
  /// touches to the counters and their obs metrics.
  void Book(const TierCounts& counts, int64_t evicted, int64_t touched);

  /// Adds the head node `node` to `tier`, demoting the tier's tail when
  /// full. Returns the number of pages evicted (0 or 1).
  int64_t Admit(Tier& tier, bool Node::*held, int32_t node);

  void Unlink(int32_t node);
  void PushFront(int32_t node);
  /// Frees tail nodes that neither tier holds.
  void DropUnheldTail();

  int64_t evictions_ = 0;
  int64_t shared_hits_ = 0;
  int64_t os_hits_ = 0;
  int64_t disk_reads_ = 0;
  int64_t touches_ = 0;
  Tier shared_;
  Tier os_;
  std::vector<uint64_t>* access_log_ = nullptr;

  // Recency list: head_ is the most recent page either tier holds.
  std::vector<Node> nodes_;
  int64_t resident_ = 0;  // nodes on the list
  int32_t free_ = kNull;  // free nodes, chained through `next`
  int32_t head_ = kNull;
  int32_t tail_ = kNull;

  // Page directory: segment_of_[key >> 48] -> segment; segment chunk table
  // [page >> kChunkBits] -> offset of the chunk's entries in entries_;
  // entries_ hold node indices (kNull when the page is in neither tier).
  std::vector<int32_t> segment_of_;
  std::vector<std::vector<int32_t>> segments_;
  std::vector<int32_t> entries_;
};

}  // namespace lqolab::storage

#endif  // LQOLAB_STORAGE_BUFFER_POOL_H_
