// Order statistics and output digests for the repository benchmark.
//
// Percentiles use the nearest-rank rule of graphrare::Percentile so the
// benchmark reports the same number the serving tier's /metrics would for
// the same samples, and every percentile carries its sample count and how
// many samples lie above it (a p99 over 50 samples is the maximum, and says
// so).

#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace perfbench {

/// A percentile with the sample it was taken from.
struct Quantile {
  double value = 0.0;
  int64_t count = 0;   ///< samples
  int64_t beyond = 0;  ///< samples strictly greater than `value`
};

/// Nearest-rank percentile of an unsorted sample. An empty sample gives
/// {0, 0, 0}.
inline Quantile QuantileOf(std::vector<double> samples, double p) {
  Quantile q;
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  q.value = graphrare::Percentile(samples, p);
  q.count = static_cast<int64_t>(samples.size());
  q.beyond = static_cast<int64_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), q.value));
  return q;
}

inline double MedianOf(std::vector<double> samples) {
  return QuantileOf(std::move(samples), 0.5).value;
}

/// 64-bit FNV-1a over a canonical byte encoding: doubles by bit pattern, so
/// two runs digest equal only if every value is bitwise equal.
class Digest {
 public:
  void AddU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (v >> (8 * i)) & 0xFFu;
      state_ *= 0x100000001B3ULL;
    }
  }
  void AddDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    AddU64(bits);
  }
  /// Length-prefixed, so {a}{b,c} and {a,b}{c} digest differently.
  void AddDoubles(const std::vector<double>& values) {
    AddU64(values.size());
    for (const double v : values) AddDouble(v);
  }
  void AddEdges(const std::vector<std::pair<int64_t, int64_t>>& edges) {
    AddU64(edges.size());
    for (const auto& e : edges) {
      AddU64(static_cast<uint64_t>(e.first));
      AddU64(static_cast<uint64_t>(e.second));
    }
  }
  uint64_t value() const { return state_; }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(state_));
    return buf;
  }

 private:
  uint64_t state_ = 0xCBF29CE484222325ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
