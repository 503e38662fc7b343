// Copyright 2026 The GraphRARE Authors.
//
// Seed-batch scheduling for block-scoped co-training. A Partitioner turns
// the train set into an endless stream of seed batches with epoch
// semantics: within each epoch every train node lands in exactly one
// batch, and a fresh epoch is cut whenever the previous one drains.
//
// Two modes:
//  * kIndependent — uniform shuffled chunking, byte-identical to the
//    legacy BlockRolloutRunner stream (shuffle, chunk, pop in order), so
//    existing trajectories are unchanged.
//  * kLocality — BFS-grown batches: seeds that are close in the graph end
//    up in the same batch, so the blocks sampled around them overlap less
//    across batches and the EditMerger sees fewer write conflicts. Epoch
//    order is a deterministic seeded shuffle of the train set (the
//    tie-break for which node roots each BFS region), so the schedule is
//    reproducible bit for bit and independent of thread count.

#ifndef GRAPHRARE_DATA_PARTITIONER_H_
#define GRAPHRARE_DATA_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace graphrare {
namespace data {

/// How the train set is cut into per-block seed batches.
enum class PartitionMode {
  kIndependent,  ///< shuffled uniform chunks (legacy stream, bitwise)
  kLocality,     ///< BFS-grown batches around shuffled roots
};

/// Configuration of the seed-batch partitioner.
struct PartitionerOptions {
  PartitionMode mode = PartitionMode::kIndependent;
  /// Seed nodes per batch. Every epoch yields ceil(train / batch_size)
  /// batches, all full except possibly the last.
  int64_t batch_size = 64;
  /// Stream seed. Independent mode derives its shuffle RNG exactly like
  /// the legacy runner (seed ^ 0xB10C5EED), which is what keeps old
  /// trajectories bitwise intact; pass the rollout seed there and a
  /// dedicated derived seed for locality mode.
  uint64_t seed = 1;

  Status Validate() const;
};

/// Deterministic epoch-structured seed-batch stream over a train set.
class Partitioner {
 public:
  /// `graph` must outlive the partitioner (only used by kLocality).
  /// `train_nodes` must be non-empty, in range, and duplicate-free.
  Partitioner(const graph::Graph* graph, std::vector<int64_t> train_nodes,
              const PartitionerOptions& options);

  /// Next seed batch, cutting a fresh epoch when the current one drains.
  std::vector<int64_t> NextBatch();

  /// Convenience: `n` consecutive NextBatch() results.
  std::vector<std::vector<int64_t>> NextBatches(int n);

  /// Batches per epoch: ceil(train / batch_size).
  int64_t batches_per_epoch() const;

 private:
  void Refill();
  std::vector<std::vector<int64_t>> BuildLocalityEpoch();

  const graph::Graph* graph_;
  std::vector<int64_t> train_;
  PartitionerOptions options_;
  Rng rng_;
  /// Current epoch's remaining batches, reversed so NextBatch pops from
  /// the back in O(1) while preserving epoch order (legacy idiom).
  std::vector<std::vector<int64_t>> pending_;

  // kLocality scratch, allocated once: versioned marks for "assigned this
  // epoch" / "visited this BFS", and a train-membership flag per node.
  std::vector<uint64_t> assigned_;
  std::vector<uint64_t> visited_;
  uint64_t assigned_version_ = 0;
  uint64_t visited_version_ = 0;
  std::vector<uint8_t> is_train_;
};

}  // namespace data
}  // namespace graphrare

#endif  // GRAPHRARE_DATA_PARTITIONER_H_
