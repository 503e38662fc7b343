// Copyright 2026 The GraphRARE Authors.
//
// Layer-wise neighbor sampling (GraphSAGE-style fanout sampling) for
// mini-batch training. Starting from a batch of seed nodes, each layer
// expands the frontier by at most `fanout` sampled neighbors per node; the
// union of all layers induces the subgraph the GNN step runs on. This is
// what decouples per-step cost from the full adjacency: memory and latency
// scale with the sampled block, not the graph.
//
// Determinism: each frontier node draws from its own RNG stream derived
// from (sampler seed, block counter, layer, node id), so a block is
// bit-for-bit reproducible regardless of how many OpenMP threads expand
// the frontier — parallelism never reorders random draws within a stream.

#ifndef GRAPHRARE_DATA_SAMPLER_H_
#define GRAPHRARE_DATA_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/subgraph.h"

namespace graphrare {
namespace data {

/// Configuration of the layer-wise neighbor sampler.
struct SamplerOptions {
  /// Per-layer fanout caps, ordered from the seed layer outward. Layer l
  /// samples at most fanouts[l] neighbors of each frontier node. A fanout
  /// >= the maximum degree keeps every neighbor; -1 means unlimited (every
  /// neighbor kept, no RNG draws). For exact full-fanout equivalence with
  /// a full-graph step of an L-layer model, use L entries for
  /// row-normalised aggregators (SAGE) and L+1 for symmetric GCN
  /// normalisation (boundary degrees must be exact; see
  /// tests/minibatch_test.cc).
  std::vector<int64_t> fanouts = {10, 10};
  /// With replacement: `fanout` independent draws (duplicates collapse when
  /// the node set is formed). Without: a partial Fisher-Yates over the
  /// neighbor list, so at most min(fanout, degree) distinct neighbors.
  bool replace = false;
  uint64_t seed = 1;

  Status Validate() const;
};

/// Samples layered neighborhood blocks from a fixed graph. Stateful only in
/// the block counter: consecutive SampleBlock calls advance the stream, and
/// SampleBlockAt replays any position of it.
class NeighborSampler {
 public:
  /// `graph` must outlive the sampler.
  NeighborSampler(const graph::Graph* graph, SamplerOptions options);

  /// Samples the layered neighborhood of `seeds` (which must be non-empty,
  /// in range, and duplicate-free) and returns the induced block.
  graph::Subgraph SampleBlock(const std::vector<int64_t>& seeds);

  /// Samples the block at an explicit stream position instead of the
  /// internal counter. SampleBlock(seeds) == SampleBlockAt(seeds, i) when i
  /// blocks have been drawn before, which lets a scheduler hand block
  /// indices to producer threads in any order and still reproduce the
  /// inline sampling stream bit for bit.
  graph::Subgraph SampleBlockAt(const std::vector<int64_t>& seeds,
                                uint64_t block_index);

  /// Frontier trace of the last SampleBlock: layers()[0] is the seed set,
  /// layers()[l+1] the nodes first reached at layer l (sorted ascending).
  /// Exposed for tests and diagnostics.
  const std::vector<std::vector<int64_t>>& layers() const { return layers_; }

  /// Samples at most `fanout` neighbors of `v` (see SamplerOptions::replace
  /// for the two modes; fanout == -1 keeps every neighbor). Public so tests
  /// can pin down per-node behavior.
  static std::vector<int64_t> SampleNeighbors(const graph::Graph& g,
                                              int64_t v, int64_t fanout,
                                              bool replace, Rng* rng);

  /// Shuffles `indices` (when `shuffle`) and chunks them into consecutive
  /// batches of at most `batch_size`. The last batch may be smaller.
  static std::vector<std::vector<int64_t>> MakeBatches(
      std::vector<int64_t> indices, int64_t batch_size, bool shuffle,
      Rng* rng);

 private:
  const graph::Graph* graph_;
  SamplerOptions options_;
  uint64_t block_counter_ = 0;
  std::vector<std::vector<int64_t>> layers_;
  /// Versioned membership marks: node v is in the current block iff
  /// mark_[v] == mark_version_. Allocated once, so per-block work stays
  /// proportional to the block, not O(num_nodes).
  std::vector<uint64_t> mark_;
  uint64_t mark_version_ = 0;
};

}  // namespace data
}  // namespace graphrare

#endif  // GRAPHRARE_DATA_SAMPLER_H_
