// Copyright 2026 The GraphRARE Authors.
//
// Deterministic random number generation. Every stochastic component in the
// library takes an explicit Rng so experiments are reproducible bit-for-bit
// across runs and platforms (std::mt19937 distributions are not portable).

#ifndef GRAPHRARE_COMMON_RNG_H_
#define GRAPHRARE_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace graphrare {

/// xoshiro256** seeded via SplitMix64. Fast, high-quality, tiny state.
class Rng {
 public:
  /// Seeds the generator. Distinct seeds give independent-looking streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Reseed(seed); }

  void Reseed(uint64_t seed) {
    // SplitMix64 expansion of the 64-bit seed into 256 bits of state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
    has_cached_normal_ = false;
  }

  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t UniformInt(uint64_t n) {
    GR_DCHECK(n > 0);
    // Lemire's nearly-divisionless method would be faster; modulo bias is
    // negligible for n << 2^64 and keeps the stream simple to reason about.
    return Next() % n;
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    GR_DCHECK(hi >= lo);
    return lo + static_cast<int64_t>(
                    UniformInt(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal via Box-Muller (cached pair).
  double Normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u1 = Uniform();
    while (u1 <= 1e-300) u1 = Uniform();
    const double u2 = Uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      const size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// k distinct indices sampled uniformly from [0, n) (partial Fisher-Yates).
  /// Returns all of [0, n) shuffled when k >= n.
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k) {
    GR_DCHECK(n >= 0);
    std::vector<int64_t> pool(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) pool[static_cast<size_t>(i)] = i;
    if (k >= n) {
      Shuffle(&pool);
      return pool;
    }
    std::vector<int64_t> out;
    out.reserve(static_cast<size_t>(k));
    for (int64_t i = 0; i < k; ++i) {
      const int64_t j = UniformInt(i, n - 1);
      std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
      out.push_back(pool[static_cast<size_t>(i)]);
    }
    return out;
  }

  /// Derives an independent child generator (for per-split / per-worker
  /// streams that must not interleave with the parent stream).
  Rng Fork() { return Rng(Next() ^ 0xD1B54A32D192ED03ULL); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace graphrare

#endif  // GRAPHRARE_COMMON_RNG_H_
