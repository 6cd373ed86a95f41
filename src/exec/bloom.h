#ifndef LQOLAB_EXEC_BLOOM_H_
#define LQOLAB_EXEC_BLOOM_H_

#include <cstdint>
#include <vector>

#include "storage/column.h"

namespace lqolab::exec {

/// Blocked Bloom filter over join-key values, used for sideways information
/// passing ("predicate transfer", docs/execution.md): the reduced side of a
/// semi-join publishes its key set as a Bloom filter so the other side can
/// reject most non-matching probe keys with one cache line instead of a
/// hash-table lookup. A negative answer is exact (zero false negatives by
/// construction); a positive answer falls through to the exact membership
/// check, so the filter is a pure fast path and never changes results.
///
/// Layout follows the cache-sectorized design of Putze et al. (2007), as
/// used by wing's predicate-transfer Bloom filter: the bit array is split
/// into 512-bit (64-byte, one cache line) blocks; a key hashes to one block
/// and sets k bits inside it, so every Add/MayContain touches exactly one
/// cache line. All hashing is seeded and the block count is a pure function
/// of (entries, target FPR), making the bit pattern deterministic for a
/// given (seed, insertion set) — a requirement for replayable fuzz runs.
class BloomFilter {
 public:
  /// Sizes the filter for `expected_entries` keys at roughly
  /// `target_fpr` false-positive rate (clamped to [1e-6, 0.5]). The blocked
  /// layout costs accuracy vs an ideal Bloom filter, so bits-per-key gets a
  /// ~30% pad; the achieved FPR stays within ~2x of the target (the bound
  /// tests/test_kernels.cc asserts).
  BloomFilter(int64_t expected_entries, double target_fpr, uint64_t seed);

  /// An empty filter; call Reset() before use. Exists so callers can keep a
  /// long-lived filter and re-size it per build without reallocating when
  /// the new block count fits the old capacity (steady-state zero-alloc).
  BloomFilter() = default;

  /// Re-sizes for a new key set, clearing all bits. Same sizing rule as the
  /// constructor; reuses the existing block storage when possible.
  void Reset(int64_t expected_entries, double target_fpr, uint64_t seed);

  void Add(storage::Value key);

  /// False only when `key` was never added. True may be a false positive.
  bool MayContain(storage::Value key) const {
    const uint64_t h = Hash(key);
    const Block& b = blocks_[BlockIndex(h)];
    uint64_t probe = h;
    for (int i = 0; i < hashes_per_key_; ++i) {
      probe = NextProbe(probe);
      if (!(b.words[probe >> 61] & (1ull << ((probe >> 55) & 63)))) {
        return false;
      }
    }
    return true;
  }

  /// True when both filters have identical parameters and bit patterns.
  bool BitsEqual(const BloomFilter& other) const;

 private:
  struct alignas(64) Block {
    uint64_t words[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  };

  uint64_t Hash(storage::Value key) const {
    // SplitMix64 finalizer over the seeded key: cheap, well-mixed, and
    // stable across platforms.
    uint64_t x = static_cast<uint64_t>(static_cast<int64_t>(key)) + seed_;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  size_t BlockIndex(uint64_t h) const {
    // Lemire's fast range reduction: maps the high bits uniformly onto
    // [0, blocks) without a modulo.
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(h) * blocks_.size()) >> 64);
  }

  /// Odd-multiplier LCG step; consumers read the TOP 9 bits (3 word +
  /// 6 bit-in-word) because an LCG's low bits have short periods and would
  /// make successive probes cluster (measured 19% FPR instead of <2%).
  static uint64_t NextProbe(uint64_t probe) {
    return probe * 0x9e3779b97f4a7c15ull + 0x7f4a7c15ull;
  }

  uint64_t seed_ = 0;
  int hashes_per_key_ = 1;
  std::vector<Block> blocks_;
};

}  // namespace lqolab::exec

#endif  // LQOLAB_EXEC_BLOOM_H_
