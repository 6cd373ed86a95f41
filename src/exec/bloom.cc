#include "exec/bloom.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace lqolab::exec {

BloomFilter::BloomFilter(int64_t expected_entries, double target_fpr,
                         uint64_t seed) {
  Reset(expected_entries, target_fpr, seed);
}

void BloomFilter::Reset(int64_t expected_entries, double target_fpr,
                        uint64_t seed) {
  seed_ = seed;
  expected_entries = std::max<int64_t>(expected_entries, 1);
  target_fpr = std::min(std::max(target_fpr, 1e-6), 0.5);
  // Ideal Bloom sizing is bits/key = -log2(p) / ln 2 ≈ 1.44·(-log2 p); the
  // blocked layout loses accuracy to uneven block loads, so pad by 30%.
  const double bits_per_key = 1.44 * (-std::log2(target_fpr)) * 1.3;
  const double total_bits = bits_per_key * static_cast<double>(expected_entries);
  const int64_t blocks =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(total_bits / 512.0)));
  blocks_.assign(static_cast<size_t>(blocks), Block{});
  const int k = static_cast<int>(std::lround(0.693 * bits_per_key));
  hashes_per_key_ = std::min(std::max(k, 1), 8);
}

void BloomFilter::Add(storage::Value key) {
  const uint64_t h = Hash(key);
  Block& b = blocks_[BlockIndex(h)];
  uint64_t probe = h;
  for (int i = 0; i < hashes_per_key_; ++i) {
    probe = NextProbe(probe);
    b.words[probe >> 61] |= 1ull << ((probe >> 55) & 63);
  }
}

bool BloomFilter::BitsEqual(const BloomFilter& other) const {
  if (seed_ != other.seed_ || hashes_per_key_ != other.hashes_per_key_ ||
      blocks_.size() != other.blocks_.size()) {
    return false;
  }
  return std::memcmp(blocks_.data(), other.blocks_.data(),
                     blocks_.size() * sizeof(Block)) == 0;
}

}  // namespace lqolab::exec
