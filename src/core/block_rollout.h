// Copyright 2026 The GraphRARE Authors.
//
// Subgraph-scoped RL topology optimization: the paper's topology MDP
// (Fig. 3) run on neighbor-sampled blocks instead of the full graph, which
// is what decouples the co-training loop's per-step cost from the global
// adjacency (SparRL-style per-subgraph edge editing). Three pieces:
//
//  * BlockTopologyEnv — one episode's MDP over a single block. All ids are
//    block-local: the state covers the block's nodes, rewiring runs
//    BuildOptimizedGraph against the block's induced graph with a
//    RelativeEntropyIndex::Restrict view, and Eq. 11 rewards come from
//    nn::MiniBatchTrainer finetune/eval steps on the block's train subset.
//
//  * BlockRolloutRunner — consumes B scheduled blocks per round from a
//    data::BlockPipeline (partition-aware seed batching + optional
//    prefetch: producers sample round R+1 while round R trains), runs one
//    lockstep episode over all B envs (a single policy forward per step
//    through rl::RunAgentOnBatchedEnvs), and records each block's final
//    edit slice into an EditMerger in block order, with per-round
//    conflict accounting surfaced through core::telemetry.
//
//  * RunBlockCoTraining — the Algorithm-1-shaped driver: entropy index,
//    pretraining, rollout rounds, validation-based model/graph selection.
//
// Full-graph mode is the B=1, fanout=infinity special case (empty
// `fanouts`: the block is graph::FullSubgraph over all nodes). It is the
// one full-graph episodic topology MDP: at dropout 0 each step is bitwise
// the full-graph step (rewire G_0, train an epoch, score Eq. 11 on the
// train set) — same rewards, rewired edges and post-finetune weights
// (tests/block_rollout_test.cc). It is not Algorithm 1, which finetunes
// only when train accuracy improves; that loop is GraphRareTrainer::Run.

#ifndef GRAPHRARE_CORE_BLOCK_ROLLOUT_H_
#define GRAPHRARE_CORE_BLOCK_ROLLOUT_H_

#include <memory>
#include <vector>

#include "data/block_pipeline.h"
#include "data/dataset.h"
#include "data/partitioner.h"
#include "data/sampler.h"
#include "data/splits.h"
#include "entropy/relative_entropy.h"
#include "nn/trainer.h"
#include "rl/env.h"
#include "core/edit_merger.h"
#include "core/reward.h"
#include "core/trainer.h"

namespace graphrare {
namespace core {

/// Per-episode MDP knobs of a BlockTopologyEnv.
struct TopologyEnvOptions {
  int k_max = 5;
  int d_max = 5;
  /// Supervised epochs run on the rewired block every step (the env always
  /// trains; Algorithm 1's conditional finetuning lives in
  /// GraphRareTrainer::Run).
  int gnn_epochs_per_step = 2;
  RewardOptions reward;
  entropy::EntropyOptions entropy;
  uint64_t seed = 1;

  /// Rejects k_max/d_max < 0, negative epoch counts, lambda_r < 0, and
  /// invalid entropy options (lambda < 0, ...) with a Status instead of
  /// letting a bad configuration crash mid-episode.
  Status Validate() const;
};

/// Configuration of the block rollout scheduler.
struct BlockRolloutOptions {
  /// Blocks (parallel episodes) per rollout round. B.
  int blocks_per_round = 4;
  /// Train seed nodes per block.
  int64_t seeds_per_block = 64;
  /// Sampler fanouts for block extraction (-1 entries = unlimited). Empty
  /// = full-graph mode: every block is the identity subgraph over all
  /// nodes.
  std::vector<int64_t> fanouts = {10, 10};
  bool sample_replace = false;
  /// Env steps per episode (each step rewires + finetunes every block).
  int steps_per_episode = 4;
  /// Per-episode MDP knobs (k_max/d_max, reward, finetune epochs).
  TopologyEnvOptions env;
  uint64_t seed = 1;

  /// Seed-batch scheduling mode. kIndependent reproduces the legacy
  /// shuffled-chunk stream bitwise; kLocality grows BFS batches so blocks
  /// overlap less and the merger sees fewer conflicts.
  data::PartitionMode partition = data::PartitionMode::kIndependent;
  /// Rounds of blocks the pipeline samples ahead of training. 0 = inline
  /// (sample on the training thread, no producer threads). The sampled
  /// stream is bitwise identical either way.
  int prefetch_depth = 1;
  /// Producer threads when prefetch_depth > 0.
  int num_producers = 1;
  /// Locality partitioner seed (ignored by kIndependent, which derives
  /// from `seed` exactly like the legacy runner). 0 = fall back to `seed`;
  /// RunBlockCoTraining overrides it with DeriveSeeds().partition.
  uint64_t partition_seed = 0;
  /// RunBlockCoTraining only: incrementally refresh the entropy index
  /// from each round's merged edits (RelativeEntropyIndex::ApplyEdits) so
  /// sequences track the rewired graph instead of G_0. Default off — the
  /// paper builds the index once, and existing trajectories depend on it.
  bool refresh_entropy = false;

  Status Validate() const;
};

/// One sampled block's episode env. Ids are block-local throughout; the
/// final (k, d) state is exported back to global space via MergeInto.
class BlockTopologyEnv : public rl::Env {
 public:
  /// `dataset` and `trainer` must outlive the env. `sorted_train_global`
  /// is the split's (ascending) train index; the env intersects it with
  /// the block to form the reward subset, which must be non-empty (blocks
  /// are seeded from train nodes, so it always is). `block_index` is the
  /// Restrict view of the global entropy index for `block`.
  BlockTopologyEnv(const data::Dataset* dataset, graph::Subgraph block,
                   const std::vector<int64_t>& sorted_train_global,
                   nn::MiniBatchTrainer* trainer,
                   entropy::RelativeEntropyIndex block_index,
                   const TopologyEnvOptions& options);

  tensor::Tensor Reset() override;
  double Step(const rl::ActionSample& action,
              tensor::Tensor* next_obs) override;

  int64_t obs_dim() const override;
  int64_t num_components() const override { return block_.num_nodes(); }

  /// Current (rewired) block graph, local ids.
  const graph::Graph& current_graph() const { return view_.graph; }

  /// Records this episode's final per-node edit slice (global ids) into
  /// the merger. Call after the episode; last writer wins on overlap.
  void MergeInto(EditMerger* merger) const;

 private:
  RewardInputs Evaluate();

  const data::Dataset* dataset_;
  nn::MiniBatchTrainer* trainer_;
  TopologyEnvOptions options_;

  graph::Subgraph block_;  ///< original block topology (G_0 induced)
  /// Rewired working copy whose seeds are the block's train subset; its
  /// graph field follows the episode's rewiring.
  graph::Subgraph view_;
  entropy::RelativeEntropyIndex index_;  ///< block-local Restrict view
  std::vector<int64_t> block_labels_;    ///< labels by local id (AUC path)

  std::unique_ptr<TopologyState> state_;
  RewardInputs prev_;
  double last_reward_ = 0.0;
};

/// Consumes scheduled block rounds from a data::BlockPipeline and runs
/// batched episodes; owns the cross-round EditMerger. One runner per
/// (dataset, split, trainer, index) tuple.
class BlockRolloutRunner {
 public:
  struct RoundStats {
    int num_blocks = 0;
    int64_t env_steps = 0;
    int64_t block_nodes = 0;   ///< sum of block sizes this round
    double mean_reward = 0.0;  ///< mean over the round's env steps
    ConflictStats conflicts;   ///< merge conflicts this round
  };

  /// All pointers must outlive the runner. `index` is the *global*
  /// entropy index; per-block Restrict views are taken internally.
  BlockRolloutRunner(const data::Dataset* dataset, const data::Split* split,
                     nn::MiniBatchTrainer* trainer,
                     const entropy::RelativeEntropyIndex* index,
                     const BlockRolloutOptions& options);

  /// One rollout round: B seed batches -> B blocks -> one lockstep
  /// episode (steps_per_episode steps, one policy forward per step across
  /// all blocks) -> edits recorded into the merger in block order.
  RoundStats RunRound(rl::PpoAgent* agent);

  /// G_0 with every edit recorded so far applied (later rounds overwrite
  /// earlier ones per node).
  graph::Graph MergedGraph() const { return merger_.Merge(dataset_->graph); }

 private:
  const data::Dataset* dataset_;
  const data::Split* split_;
  nn::MiniBatchTrainer* trainer_;
  const entropy::RelativeEntropyIndex* index_;
  BlockRolloutOptions options_;

  /// Partition-aware scheduler + (optionally prefetching) sampler.
  std::unique_ptr<data::BlockPipeline> pipeline_;
  EditMerger merger_;
};

/// Former name of the block path's result, kept for existing callers.
using BlockCoTrainResult = GraphRareResult;

/// Runs block-scoped GraphRARE co-training on one split: entropy index on
/// G_0, mini-batch pretraining, `options.iterations` rollout rounds with
/// merged-graph validation selection, final test evaluation on the best
/// graph/weights. The MDP knobs of `rollout.env` (k_max, d_max, reward)
/// and every subsystem seed are overridden from `options` so one
/// GraphRareOptions + master seed configures both co-training paths.
/// Fills env_steps, round_telemetry, reward/val histories and both
/// homophily fields of the result; the per-iteration train-accuracy and
/// homophily histories stay empty. Aborts unless policy_mode is kDrl and
/// both edit channels are enabled: the block MDP has no ablation switches.
GraphRareResult RunBlockCoTraining(const data::Dataset& dataset,
                                   const data::Split& split,
                                   const GraphRareOptions& options,
                                   const BlockRolloutOptions& rollout);

}  // namespace core
}  // namespace graphrare

#endif  // GRAPHRARE_CORE_BLOCK_ROLLOUT_H_
