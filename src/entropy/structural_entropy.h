// Copyright 2026 The GraphRARE Authors.
//
// Node structural entropy (paper Eqs. 5-8): similarity of two nodes' local
// structures measured as 1 - JS divergence between their normalised,
// descending degree sequences (node degree + 1-hop neighbour degrees,
// zero-padded to a common length). JS uses log base 2, so values live in
// [0, 1]; H_s(v,u) = 1 means identical local degree profiles.

#ifndef GRAPHRARE_ENTROPY_STRUCTURAL_ENTROPY_H_
#define GRAPHRARE_ENTROPY_STRUCTURAL_ENTROPY_H_

#include <vector>

#include "graph/graph.h"

namespace graphrare {
namespace entropy {

/// Precomputes every node's normalised degree sequence once, then answers
/// pairwise structural-entropy queries in O(max(len(v), len(u))).
///
/// Alongside each sequence p(v) it caches the terms that depend on v
/// alone: the self-entropy H(p(v)), and log(p_i(v) / 2) for every entry,
/// which is log m_i wherever the other sequence's zero padding leaves
/// m_i = p_i(v) / 2. A pair query therefore computes only H(m): one `log`
/// per element of the common prefix, one multiply-subtract with a cached
/// log per element of the longer sequence's tail. The cache costs
/// (2E + N) doubles plus N offsets and self-entropies. Between(v, u) is
/// bitwise 1 - JS(Sequence(v), Sequence(u)) summed directly over the
/// zero-padded pair (the JsDivergence oracle in tests/entropy_reference.h):
/// the cached sums run in that sum's element order and with its
/// expression shapes.
class StructuralEntropyCalculator {
 public:
  explicit StructuralEntropyCalculator(const graph::Graph& g);

  /// H_s(v, u) = 1 - JS(p(v), p(u)) in [0, 1]. Symmetric.
  double Between(int64_t v, int64_t u) const;

  /// The normalised descending degree sequence p(v) (Eq. 6), without the
  /// implicit zero padding.
  const std::vector<float>& Sequence(int64_t v) const {
    return sequences_[static_cast<size_t>(v)];
  }

 private:
  std::vector<std::vector<float>> sequences_;
  // H(p(v)) in nats, summed like the direct JS sum sums H(p).
  std::vector<double> self_entropy_;
  // log(0.5 * p_i(v)) for every entry of every sequence, node by node;
  // node v's entries start at half_log_offset_[v].
  std::vector<double> half_log_;
  std::vector<size_t> half_log_offset_;
};

}  // namespace entropy
}  // namespace graphrare

#endif  // GRAPHRARE_ENTROPY_STRUCTURAL_ENTROPY_H_
