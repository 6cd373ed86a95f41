#ifndef LQOLAB_UTIL_RNG_H_
#define LQOLAB_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lqolab::util {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// splitmix64). Every stochastic component of the framework draws from an
/// explicitly seeded Rng so that all benches are bit-reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double Uniform();

  /// Standard normal variate (Box-Muller).
  double Gaussian();

  /// Normal variate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Zipf-distributed integer in [0, n) with exponent `s` (s=0 is uniform).
  /// Builds a ZipfTable for the one draw; callers that draw repeatedly from
  /// one domain should build the ZipfTable once and draw the same ranks.
  int64_t Zipf(int64_t n, double s);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// Deterministically derives a child generator; use to give independent
  /// streams to sub-components without coupling their draw counts.
  Rng Fork();

 private:
  uint64_t state_[4];
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// Deterministically mixes two 64-bit words into one well-dispersed seed
/// (splitmix64 finalizer over the concatenation). Used to derive independent
/// per-query RNG streams from (global_seed, query_fingerprint[, salt])
/// without coupling their draw counts — the stream-derivation rule of the
/// parallel runner's determinism contract (docs/parallelism.md).
uint64_t MixSeed(uint64_t a, uint64_t b);
inline uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  return MixSeed(MixSeed(a, b), c);
}

/// Precomputed cumulative table for repeated Zipf draws over a fixed domain.
/// A guide table (Chen and Asau's indexed search) starts each draw's scan
/// next to its answer, so a draw costs O(1) expected instead of a binary
/// search, and returns the same rank as std::lower_bound over the CDF.
class ZipfTable {
 public:
  /// Builds the CDF for ranks [0, n) with exponent s >= 0.
  ZipfTable(int64_t n, double s);

  /// Draws one rank using the provided generator.
  int64_t Sample(Rng* rng) const { return RankOf(rng->Uniform()); }

  /// The rank a uniform draw `u` in [0, 1) maps to: the first rank whose
  /// cumulative probability is >= u (the last rank if there is none).
  int64_t RankOf(double u) const;

  int64_t domain_size() const { return static_cast<int64_t>(ranks_.size()); }

  /// Cumulative probability of ranks [0, rank].
  double cdf(int64_t rank) const {
    return ranks_[static_cast<size_t>(rank)].cdf;
  }

 private:
  /// The guide slot of u in [0, 1]: min(n - 1, floor(u * n)).
  size_t Slot(double u) const;

  /// Entry i holds rank i's CDF and guide slot i, in one allocation per
  /// table: as two arrays, the extra allocation left holes in the heap
  /// that raised some `tpch` runs' peak RSS by ~20 MB.
  struct Rank {
    double cdf;      // cumulative probability of ranks [0, this rank]
    uint32_t guide;  // the first rank whose CDF has slot >= this index
  };
  std::vector<Rank> ranks_;
};

}  // namespace lqolab::util

#endif  // LQOLAB_UTIL_RNG_H_
