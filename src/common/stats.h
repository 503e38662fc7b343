// Copyright 2026 The GraphRARE Authors.
//
// Order-statistics helpers shared by the serving daemon, the throughput
// benches, and the HTTP tier's /metrics endpoint. One place owns the
// percentile math so all three report the same numbers for the same
// samples.

#ifndef GRAPHRARE_COMMON_STATS_H_
#define GRAPHRARE_COMMON_STATS_H_

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace graphrare {

/// Nearest-rank percentile of an ascending-sorted sample. p is clamped to
/// [0, 1]; returns 0 for an empty sample and the element itself for a
/// single-element sample.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  p = std::max(0.0, std::min(1.0, p));
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// The percentile set every latency report in the repo prints. All fields
/// are 0 when count == 0.
struct LatencySummary {
  int64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Summarises a sample (any order; sorted internally). Takes the vector by
/// value so callers keep their recording order.
inline LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = static_cast<int64_t>(samples.size());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = Percentile(samples, 0.50);
  s.p90 = Percentile(samples, 0.90);
  s.p95 = Percentile(samples, 0.95);
  s.p99 = Percentile(samples, 0.99);
  s.max = samples.back();
  return s;
}

/// Thread-safe latency sample sink for long-lived servers. Keeps an exact
/// sample up to `capacity`, then switches to uniform reservoir sampling so
/// memory stays bounded while the percentile estimate keeps tracking the
/// full stream. The total observation count is exact either way.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(size_t capacity = 4096) : capacity_(capacity) {
    if (capacity_ == 0) capacity_ = 1;
  }

  void Record(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    ++observed_;
    if (samples_.size() < capacity_) {
      samples_.push_back(value);
      return;
    }
    // Vitter's algorithm R: keep each of the `observed_` values with
    // probability capacity / observed.
    rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t slot = (rng_state_ >> 33) % observed_;
    if (slot < capacity_) samples_[static_cast<size_t>(slot)] = value;
  }

  /// Percentiles of the retained sample; `count` is the exact number of
  /// Record calls, which can exceed the sample size once the reservoir
  /// is full.
  LatencySummary Summary() const {
    std::lock_guard<std::mutex> lock(mu_);
    LatencySummary s = Summarize(samples_);
    s.count = static_cast<int64_t>(observed_);
    return s;
  }

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t observed_ = 0;
  uint64_t rng_state_ = 0x853C49E6748FEA9BULL;
  std::vector<double> samples_;
};

}  // namespace graphrare

#endif  // GRAPHRARE_COMMON_STATS_H_
