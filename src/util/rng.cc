#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace lqolab::util {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t MixSeed(uint64_t a, uint64_t b) {
  // Hash-combine: advance a splitmix64 stream seeded by `a`, fold in `b`,
  // and finalize. Asymmetric in (a, b), so swapped arguments give
  // independent streams.
  uint64_t state = a;
  const uint64_t h = SplitMix64(&state);
  state ^= b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return SplitMix64(&state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  LQOLAB_CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t value = Next();
  while (value >= limit) value = Next();
  return lo + static_cast<int64_t>(value % span);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Gaussian() {
  if (have_spare_gaussian_) {
    have_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  spare_gaussian_ = radius * std::sin(angle);
  have_spare_gaussian_ = true;
  return radius * std::cos(angle);
}

int64_t Rng::Zipf(int64_t n, double s) {
  LQOLAB_CHECK_GT(n, 0);
  if (s <= 0.0) return UniformInt(0, n - 1);
  ZipfTable table(n, s);
  return table.Sample(this);
}

Rng Rng::Fork() { return Rng(Next()); }

ZipfTable::ZipfTable(int64_t n, double s) {
  LQOLAB_CHECK_GT(n, 0);
  LQOLAB_CHECK_LE(n, int64_t{UINT32_MAX});
  ranks_.resize(static_cast<size_t>(n));
  double total = 0.0;
  for (int64_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    ranks_[static_cast<size_t>(rank)].cdf = total;
  }
  for (Rank& r : ranks_) r.cdf /= total;
  // ranks_[j].guide is the first rank whose CDF maps to slot j or later,
  // under the same rounding as RankOf's slot of u. Slot is monotone, so
  // every rank before ranks_[Slot(u)].guide has a CDF below u: a scan from
  // there can never start past the std::lower_bound answer.
  size_t slot = 0;
  for (size_t rank = 0; rank < ranks_.size(); ++rank) {
    const size_t last = Slot(ranks_[rank].cdf);
    while (slot <= last) ranks_[slot++].guide = static_cast<uint32_t>(rank);
  }
}

size_t ZipfTable::Slot(double u) const {
  return std::min(ranks_.size() - 1,
                  static_cast<size_t>(u * static_cast<double>(ranks_.size())));
}

int64_t ZipfTable::RankOf(double u) const {
  size_t rank = ranks_[Slot(u)].guide;
  while (rank < ranks_.size() && ranks_[rank].cdf < u) ++rank;
  if (rank == ranks_.size()) return static_cast<int64_t>(ranks_.size()) - 1;
  return static_cast<int64_t>(rank);
}

}  // namespace lqolab::util
