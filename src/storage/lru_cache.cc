#include "storage/lru_cache.h"

#include <algorithm>
#include <limits>
#include <string>

namespace lqolab::storage {

namespace {

/// Smallest slot table the cache ever uses.
constexpr size_t kMinSlots = 16;

/// Smallest power of two ≥ 2n (load factor ≤ 0.5), floored at kMinSlots.
size_t SlotCount(size_t n) {
  size_t count = kMinSlots;
  while (count < 2 * n) count <<= 1;
  return count;
}

}  // namespace

LruCache::LruCache(int64_t capacity) : capacity_(capacity) {
  LQOLAB_CHECK_GE(capacity, 0);
  Rehash(kMinSlots);
}

void LruCache::Clear() {
  evictions_ += size();
  // Shrink the slot table towards what the dropped entries needed, by at
  // most half per Clear: after one large run the cost of clearing decays
  // geometrically instead of staying at the peak, and a run of similar
  // size does not pay to regrow the table.
  const size_t slot_count =
      std::max(SlotCount(nodes_.size()), slots_.size() / 2);
  nodes_.clear();
  Rehash(slot_count);
  head_ = kEmpty;
  tail_ = kEmpty;
}

util::Status LruCache::TryResize(int64_t capacity) {
  if (capacity < 0) {
    return util::Status(util::StatusCode::kResourceExhausted,
                        "lru capacity " + std::to_string(capacity) +
                            " not satisfiable");
  }
  capacity_ = capacity;
  Clear();
  return util::Status::Ok();
}

int32_t LruCache::NewNode() {
  LQOLAB_CHECK_LT(nodes_.size(),
                  static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  nodes_.push_back({});
  return static_cast<int32_t>(nodes_.size() - 1);
}

void LruCache::EraseSlot(uint64_t key) {
  size_t hole = Home(key);
  while (slots_[hole].key != key || slots_[hole].node == kEmpty) {
    hole = (hole + 1) & mask_;
  }
  // Backward shift: walk the rest of the probe cluster and move each entry
  // whose probe path crosses the hole (its home lies cyclically at or
  // before the hole) into it, so every remaining key stays reachable from
  // its home without tombstones.
  for (size_t j = (hole + 1) & mask_; slots_[j].node != kEmpty;
       j = (j + 1) & mask_) {
    const size_t home = Home(slots_[j].key);
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].node = kEmpty;
}

void LruCache::Rehash(size_t slot_count) {
  slots_.assign(slot_count, Slot{0, kEmpty});
  mask_ = slot_count - 1;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    slots_[FindEmpty(nodes_[n].key)] = {nodes_[n].key, static_cast<int32_t>(n)};
  }
}

}  // namespace lqolab::storage
