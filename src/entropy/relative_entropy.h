// Copyright 2026 The GraphRARE Authors.
//
// Node relative entropy (paper Eq. 9) and per-node entropy sequences
// (Sec. IV-A.4). H(v,u) = Hf~(v,u) + lambda * Hs(v,u), where Hf~ is the
// feature entropy min-max rescaled over the computed pair set so the two
// terms live on the same [0,1] scale and lambda acts as a true ratio knob.
//
// Built once before co-training (the paper computes entropy a single time;
// Table VI reports that cost separately). Remote candidates per node are
// its 2-hop neighbourhood (sampled down when huge) plus uniformly sampled
// remote nodes — the paper's sparse-computation note made concrete.

#ifndef GRAPHRARE_ENTROPY_RELATIVE_ENTROPY_H_
#define GRAPHRARE_ENTROPY_RELATIVE_ENTROPY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "entropy/feature_entropy.h"
#include "entropy/structural_entropy.h"
#include "graph/graph.h"
#include "graph/subgraph.h"

namespace graphrare {
namespace entropy {

/// Options of the relative-entropy index.
struct EntropyOptions {
  /// Mixing weight of structural entropy (Eq. 9). Table IV sweeps this.
  double lambda = 1.0;
  FeatureEmbeddingOptions embedding;
  /// Cap on 2-hop candidates per node (sampled without replacement beyond).
  int max_two_hop_candidates = 24;
  /// Extra uniformly sampled remote candidates per node (long-range reach
  /// beyond 2 hops, "the node entropy sequence can be constructed flexibly
  /// to cover the whole graph").
  int num_random_candidates = 8;
  uint64_t seed = 13;

  Status Validate() const;
};

/// A scored candidate.
struct ScoredNode {
  int64_t node;
  double entropy;
};

/// Per-node sequences used by the topology optimizer.
struct NodeSequences {
  /// Remote (non-adjacent) candidates in *descending* relative entropy:
  /// additions take a prefix of this list.
  std::vector<ScoredNode> remote;
  /// Current 1-hop neighbours in *ascending* relative entropy (most
  /// dissimilar first): deletions take a prefix of this list.
  std::vector<ScoredNode> neighbors;
};

/// Immutable index of per-node entropy sequences over a fixed graph.
class RelativeEntropyIndex {
 public:
  /// Computes the index: candidate generation, feature + structural
  /// entropies, per-node sequence sort.
  static Result<RelativeEntropyIndex> Build(const graph::Graph& g,
                                            const tensor::Tensor& features,
                                            const EntropyOptions& options);

  int64_t num_nodes() const {
    return static_cast<int64_t>(sequences_.size());
  }
  const NodeSequences& sequences(int64_t v) const {
    GR_CHECK(v >= 0 && v < num_nodes());
    return sequences_[static_cast<size_t>(v)];
  }
  double lambda() const { return lambda_; }

  /// In-place shuffle of every sequence (the "GraphRARE without relative
  /// entropy" ablation, Table V row GCN-RA).
  void ShuffleSequences(Rng* rng);

  /// Block-scoped view: remaps every sequence into the block's local id
  /// space, dropping candidates outside the block. No entropies are
  /// recomputed, and the relative order of each sequence is preserved
  /// (the local<->global map is monotone, so even equal-entropy ties keep
  /// their node-id tie-break order). An identity block (nodes 0..N-1)
  /// reproduces this index exactly, which is what makes the full-graph
  /// topology env the B=1/full-fanout special case of the block env.
  RelativeEntropyIndex Restrict(const graph::Subgraph& block) const;

  /// Incremental refresh after a merge round: moves each endpoint of an
  /// added edge from the other endpoint's remote sequence into its
  /// neighbour sequence (and the reverse for removed edges), carrying the
  /// pairwise entropy score and reinserting at the canonical sorted
  /// position (remote: entropy desc, neighbours: entropy asc; ties break
  /// ascending node id). Pairs that were never scored at Build time are
  /// no-ops — the candidate universe is fixed, only the adjacency
  /// bucketing tracks the rewired graph. O(sum of touched sequence
  /// lengths); deterministic, independent of edit order within each list.
  void ApplyEdits(const std::vector<graph::Edge>& added,
                  const std::vector<graph::Edge>& removed);

 private:
  std::vector<NodeSequences> sequences_;
  double lambda_ = 1.0;
};

/// Dense pairwise relative-entropy matrix for small graphs (Fig. 8
/// visualisation and tests). Normaliser spans all N*(N-1)/2 pairs.
/// Aborts if g.num_nodes() > 4096.
tensor::Tensor DenseRelativeEntropyMatrix(const graph::Graph& g,
                                          const tensor::Tensor& features,
                                          const EntropyOptions& options);

}  // namespace entropy
}  // namespace graphrare

#endif  // GRAPHRARE_ENTROPY_RELATIVE_ENTROPY_H_
