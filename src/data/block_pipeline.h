// Copyright 2026 The GraphRARE Authors.
//
// Prefetching block scheduler: couples a Partitioner (which seed nodes
// form each block) to a NeighborSampler (which nodes the block contains)
// and overlaps the two with training. Producer threads claim whole rounds
// from a bounded queue and sample round R+1's blocks while the consumer
// trains on round R; `prefetch_depth` bounds how many rounds may be
// buffered ahead, which is what keeps peak RSS flat at million-node scale.
//
// Determinism contract: the schedule (which seeds, which block index) is
// fixed under a mutex before any sampling happens, and every block is
// sampled at an explicit stream position via SampleBlockAt, so the stream
// of ScheduledBlocks is bit-for-bit identical whether sampling runs
// inline (prefetch_depth = 0), on one producer, or on many — regardless
// of thread scheduling or OpenMP thread count.

#ifndef GRAPHRARE_DATA_BLOCK_PIPELINE_H_
#define GRAPHRARE_DATA_BLOCK_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "data/partitioner.h"
#include "data/sampler.h"
#include "graph/subgraph.h"

namespace graphrare {
namespace data {

/// One block of a scheduled round: the sampled subgraph, the seed batch
/// that produced it, and its position in the global sampling stream.
struct ScheduledBlock {
  graph::Subgraph block;
  std::vector<int64_t> seeds;
  uint64_t block_index = 0;
};

/// Configuration of the prefetching block pipeline.
struct BlockPipelineOptions {
  /// Sampler config. Empty `sampler.fanouts` = full-graph mode: every
  /// block is graph::FullSubgraph over all nodes (no sampling, no RNG).
  SamplerOptions sampler;
  /// Blocks per round (one NextRound() call returns this many).
  int blocks_per_round = 4;
  /// Train seeds per block (the partitioner's batch size).
  int64_t seeds_per_block = 64;
  PartitionMode partition = PartitionMode::kIndependent;
  /// Seed of the partitioner stream. Independent mode should receive the
  /// rollout seed (legacy bitwise stream); locality mode its own derived
  /// seed (core::DeriveSeeds).
  uint64_t partition_seed = 1;
  /// Rounds buffered ahead of the consumer. 0 = inline: NextRound()
  /// samples synchronously on the calling thread and no threads spawn.
  int prefetch_depth = 1;
  /// Producer threads (only used when prefetch_depth > 0).
  int num_producers = 1;

  Status Validate() const;
};

/// Bounded producer/consumer pipeline of sampled block rounds.
class BlockPipeline {
 public:
  /// `graph` must outlive the pipeline. `train_nodes` must be non-empty,
  /// in range, and duplicate-free.
  BlockPipeline(const graph::Graph* graph, std::vector<int64_t> train_nodes,
                const BlockPipelineOptions& options);
  ~BlockPipeline();

  BlockPipeline(const BlockPipeline&) = delete;
  BlockPipeline& operator=(const BlockPipeline&) = delete;

  /// The next round's blocks, in schedule order. Blocks when prefetching
  /// and the round is still being sampled; samples synchronously when
  /// prefetch_depth == 0.
  std::vector<ScheduledBlock> NextRound();

 private:
  struct RoundPlan {
    int64_t round = 0;
    std::vector<std::vector<int64_t>> batches;
    uint64_t base_block_index = 0;
  };

  /// Claims the next round's schedule under the lock (partitioner state +
  /// stream position), or returns false on shutdown / depth limit.
  bool ClaimRound(std::unique_lock<std::mutex>* lock, RoundPlan* plan);
  /// Samples one planned round. Pure given the plan: called from producer
  /// threads (own sampler) and from NextRound in inline mode.
  std::vector<ScheduledBlock> ProduceRound(const RoundPlan& plan,
                                           NeighborSampler* sampler) const;
  void ProducerLoop();

  const graph::Graph* graph_;
  BlockPipelineOptions options_;
  Partitioner partitioner_;
  /// Sampler of the inline path (null in full-graph mode).
  std::unique_ptr<NeighborSampler> inline_sampler_;

  std::mutex mu_;
  std::condition_variable produce_cv_;  ///< signalled when a claim may open
  std::condition_variable consume_cv_;  ///< signalled when a round lands
  int64_t next_claim_ = 0;
  int64_t next_consume_ = 0;
  uint64_t blocks_issued_ = 0;
  std::map<int64_t, std::vector<ScheduledBlock>> ready_;
  bool stop_ = false;
  std::vector<std::thread> producers_;
};

}  // namespace data
}  // namespace graphrare

#endif  // GRAPHRARE_DATA_BLOCK_PIPELINE_H_
