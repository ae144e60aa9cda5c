/// \file rng.h
/// \brief Deterministic pseudo-random generator (splitmix64 / xoshiro256**).
///
/// All workload generation and simulation in gisql derives randomness from
/// this generator so every experiment is exactly reproducible from a seed.

#pragma once

#include <cstdint>
#include <string>

namespace gisql {

/// \brief xoshiro256** seeded via splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) {
    uint64_t x = seed;
    for (auto& si : s_) {
      // splitmix64 step
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      si = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// \brief Uniform integer in [lo, hi] inclusive.
  int64_t Uniform(int64_t lo, int64_t hi) {
    if (hi <= lo) return lo;
    uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % range);
  }

  /// \brief Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// \brief True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// \brief Random lowercase ASCII string of the given length.
  std::string NextString(size_t len) {
    std::string s(len, 'a');
    for (auto& c : s) c = static_cast<char>('a' + (Next() % 26));
    return s;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// \brief Zipf-distributed ranks in [1, n]; theta=0 is uniform.
/// Uses the classic rejection-free inverse-CDF approximation of
/// Gray et al. (SIGMOD '94) for skewed synthetic workloads. The
/// normalization (zeta(n), O(n)) is computed once here, so a workload
/// builds one sampler per distribution and draws from it with any Rng.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double theta);

  /// \brief One rank; n <= 1 returns 1 without drawing.
  int64_t Sample(Rng& rng) const;

 private:
  int64_t n_;
  double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
  double half_pow_theta_ = 0.0;  ///< 0.5^theta
};

}  // namespace gisql
