// The relative-entropy index build written out from public calls, as the
// reference that RelativeEntropyIndex::Build is checked against: candidate
// marking through a hash set, FeatureEntropyForPairs over the whole pair
// set with min-max rescaling, and structural entropy scored as
// 1 - JsDivergence on the raw degree sequences (no per-node cache). The
// per-node sequences must match Build's exactly: same ids, same entropy
// bits, same order.
//
// JsDivergence is also the oracle of StructuralEntropyCalculator::Between.
// Like every project target, both compile with -ffp-contract=off, so its
// sums round one operation at a time, like Between's.

#ifndef GRAPHRARE_TESTS_ENTROPY_REFERENCE_H_
#define GRAPHRARE_TESTS_ENTROPY_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "entropy/relative_entropy.h"

namespace graphrare {
namespace testing_ref {

/// Jensen-Shannon divergence between two discrete distributions given as
/// (possibly different-length) arrays; missing tail entries are zeros.
/// Inputs must be non-negative and sum to 1 (up to rounding). Log base 2.
inline double JsDivergence(const std::vector<float>& p,
                           const std::vector<float>& q) {
  constexpr double kLog2 = 0.6931471805599453;  // ln 2
  const auto xlogx = [](double x) { return x > 0.0 ? x * std::log(x) : 0.0; };
  const size_t n = std::max(p.size(), q.size());
  // JS(p,q) = H(m) - (H(p) + H(q))/2 in nats, converted to bits; zero tail
  // entries contribute nothing.
  double h_m = 0.0, h_p = 0.0, h_q = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pi = i < p.size() ? p[i] : 0.0;
    const double qi = i < q.size() ? q[i] : 0.0;
    const double mi = 0.5 * (pi + qi);
    h_m -= xlogx(mi);
    h_p -= xlogx(pi);
    h_q -= xlogx(qi);
  }
  const double js_nats = h_m - 0.5 * (h_p + h_q);
  double js_bits = js_nats / kLog2;
  // Clamp tiny negative rounding noise.
  if (js_bits < 0.0) js_bits = 0.0;
  if (js_bits > 1.0) js_bits = 1.0;
  return js_bits;
}

inline std::vector<entropy::NodeSequences> ReferenceEntropySequences(
    const graph::Graph& g, const tensor::Tensor& features,
    const entropy::EntropyOptions& options) {
  const int64_t n = g.num_nodes();
  Rng rng(options.seed);
  const tensor::Tensor z = entropy::EmbedFeatures(features, options.embedding);
  const entropy::StructuralEntropyCalculator structural(g);

  std::vector<entropy::NodePair> pairs;
  std::vector<size_t> begin;
  std::vector<size_t> remote_count;
  std::unordered_set<int64_t> taken;
  for (int64_t v = 0; v < n; ++v) {
    begin.push_back(pairs.size());
    taken.clear();
    taken.insert(v);
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      taken.insert(*p);
    }
    std::vector<int64_t> two_hop;
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      for (const int64_t* q = g.NeighborsBegin(*p); q != g.NeighborsEnd(*p);
           ++q) {
        if (taken.insert(*q).second) two_hop.push_back(*q);
      }
    }
    if (static_cast<int>(two_hop.size()) > options.max_two_hop_candidates) {
      std::vector<int64_t> sampled;
      for (int64_t i : rng.SampleWithoutReplacement(
               static_cast<int64_t>(two_hop.size()),
               options.max_two_hop_candidates)) {
        sampled.push_back(two_hop[static_cast<size_t>(i)]);
      }
      two_hop = std::move(sampled);
    }
    std::vector<int64_t> random_remote;
    int attempts = 0;
    while (static_cast<int>(random_remote.size()) <
               options.num_random_candidates &&
           attempts < options.num_random_candidates * 20) {
      ++attempts;
      const int64_t c =
          static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
      if (taken.insert(c).second) random_remote.push_back(c);
    }
    for (int64_t c : two_hop) pairs.emplace_back(v, c);
    for (int64_t c : random_remote) pairs.emplace_back(v, c);
    remote_count.push_back(two_hop.size() + random_remote.size());
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      pairs.emplace_back(v, *p);
    }
  }
  begin.push_back(pairs.size());

  std::vector<double> hf = entropy::FeatureEntropyForPairs(z, pairs);
  if (!hf.empty()) {
    const auto [mn_it, mx_it] = std::minmax_element(hf.begin(), hf.end());
    const double mn = *mn_it, range = *mx_it - mn;
    for (double& h : hf) h = range > 0.0 ? (h - mn) / range : 0.5;
  }

  std::vector<entropy::NodeSequences> out(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    const size_t sv = static_cast<size_t>(v);
    entropy::NodeSequences& seq = out[sv];
    for (size_t i = begin[sv]; i < begin[sv + 1]; ++i) {
      const int64_t u = pairs[i].second;
      const double hs =
          1.0 - JsDivergence(structural.Sequence(v), structural.Sequence(u));
      const double h = hf[i] + options.lambda * hs;
      if (i - begin[sv] < remote_count[sv]) {
        seq.remote.push_back({u, h});
      } else {
        seq.neighbors.push_back({u, h});
      }
    }
    std::sort(seq.remote.begin(), seq.remote.end(),
              [](const entropy::ScoredNode& a, const entropy::ScoredNode& b) {
                return a.entropy != b.entropy ? a.entropy > b.entropy
                                              : a.node < b.node;
              });
    std::sort(seq.neighbors.begin(), seq.neighbors.end(),
              [](const entropy::ScoredNode& a, const entropy::ScoredNode& b) {
                return a.entropy != b.entropy ? a.entropy < b.entropy
                                              : a.node < b.node;
              });
  }
  return out;
}

}  // namespace testing_ref
}  // namespace graphrare

#endif  // GRAPHRARE_TESTS_ENTROPY_REFERENCE_H_
