#ifndef LQOLAB_STORAGE_LRU_CACHE_H_
#define LQOLAB_STORAGE_LRU_CACHE_H_

#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace lqolab::storage {

/// Exact LRU set of 64-bit keys with O(1) touch. Used for the
/// serve::PlanCache shards (storage::BufferPool keeps its own page table).
///
/// Flat layout, no per-entry allocation: entries are nodes in one array
/// whose int32 prev/next links form the recency list (head = most recent),
/// and an open-addressing slot table maps each key to its node — power-of-
/// two size, load <= 0.5, linear probing, backward-shift deletion (so no
/// tombstones). Both arrays grow with size(), never up to capacity(), so a
/// generous capacity costs nothing until it is used. A full cache reuses
/// the evicted tail's node for the incoming key.
class LruCache {
 public:
  explicit LruCache(int64_t capacity);

  /// Looks up `key`; on hit moves it to the front and returns true, on miss
  /// inserts it (evicting the LRU entry if full) and returns false. When an
  /// eviction occurs and `evicted` is non-null, stores the evicted key (so
  /// callers keeping a payload per key — e.g. serve::PlanCache — can drop
  /// the matching entry).
  bool Touch(uint64_t key, uint64_t* evicted = nullptr) {
    if (capacity_ == 0) return false;
    size_t i = Home(key);
    for (; slots_[i].node != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        MoveToFront(slots_[i].node);
        return true;
      }
    }
    int32_t node;
    if (size() >= capacity_) {
      node = tail_;
      if (evicted != nullptr) *evicted = nodes_[node].key;
      Unlink(node);
      EraseSlot(nodes_[node].key);
      ++evictions_;
      i = FindEmpty(key);  // the backward shift may have moved the hole
    } else {
      if (2 * (nodes_.size() + 1) > slots_.size()) {
        Rehash(2 * slots_.size());
        i = FindEmpty(key);
      }
      node = NewNode();
    }
    nodes_[node].key = key;
    PushFront(node);
    slots_[i] = {key, node};
    return false;
  }

  /// True when `key` is resident; does not update recency.
  bool Contains(uint64_t key) const {
    for (size_t i = Home(key); slots_[i].node != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return true;
    }
    return false;
  }

  /// Drops every entry. Dropped entries count as evictions: the lifetime
  /// counter tracks every removal, whether capacity-driven or bulk.
  void Clear();

  /// Changes the capacity; clears contents (a resized cache is cold).
  /// Aborts on a negative capacity; use TryResize where allocation pressure
  /// must degrade to a typed error instead.
  void Resize(int64_t capacity) {
    LQOLAB_CHECK(TryResize(capacity).ok());
  }

  /// Like Resize, but an unsatisfiable capacity (negative — e.g. an
  /// overflowed bytes->pages computation under allocation pressure) returns
  /// kResourceExhausted and leaves the cache untouched.
  util::Status TryResize(int64_t capacity);

  int64_t size() const { return static_cast<int64_t>(nodes_.size()); }
  int64_t capacity() const { return capacity_; }
  /// Entries evicted over the cache's lifetime, including entries dropped
  /// by Clear() and capacity changes (Resize()).
  int64_t evictions() const { return evictions_; }

 private:
  static constexpr int32_t kEmpty = -1;  // slot marker and null link

  struct Node {
    uint64_t key;
    int32_t prev;  // towards the head (more recent)
    int32_t next;  // towards the tail (less recent)
  };
  struct Slot {
    uint64_t key;
    int32_t node;  // kEmpty marks a free slot (its key is stale)
  };

  /// Home slot of `key`: a 64-bit finalizer (murmur3 fmix64) so page keys,
  /// whose low bits are consecutive page numbers, spread over the table.
  size_t Home(uint64_t key) const {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return static_cast<size_t>(key) & mask_;
  }

  size_t FindEmpty(uint64_t key) const {
    size_t i = Home(key);
    while (slots_[i].node != kEmpty) i = (i + 1) & mask_;
    return i;
  }

  void Unlink(int32_t node) {
    const Node& n = nodes_[node];
    if (n.prev != kEmpty) {
      nodes_[n.prev].next = n.next;
    } else {
      head_ = n.next;
    }
    if (n.next != kEmpty) {
      nodes_[n.next].prev = n.prev;
    } else {
      tail_ = n.prev;
    }
  }

  void PushFront(int32_t node) {
    nodes_[node].prev = kEmpty;
    nodes_[node].next = head_;
    if (head_ != kEmpty) {
      nodes_[head_].prev = node;
    } else {
      tail_ = node;
    }
    head_ = node;
  }

  void MoveToFront(int32_t node) {
    if (node == head_) return;
    Unlink(node);
    PushFront(node);
  }

  int32_t NewNode();
  /// Removes the resident `key` from the slot table by backward shift.
  void EraseSlot(uint64_t key);
  /// Re-places every resident key into a fresh table of `slot_count` slots.
  void Rehash(size_t slot_count);

  int64_t capacity_;
  int64_t evictions_ = 0;
  std::vector<Node> nodes_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int32_t head_ = kEmpty;
  int32_t tail_ = kEmpty;
};

}  // namespace lqolab::storage

#endif  // LQOLAB_STORAGE_LRU_CACHE_H_
