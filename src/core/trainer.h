// Copyright 2026 The GraphRARE Authors.
//
// The GraphRARE co-training loop (paper Algorithm 1): a backbone GNN and a
// PPO agent are trained jointly; the agent's per-node (k, d) state drives
// the topology optimization module, and the GNN's train-set accuracy/loss
// deltas are the agent's reward. Ablation switches reproduce every Table V
// row and the Fig. 5 fixed-(k,d) grids.

#ifndef GRAPHRARE_CORE_TRAINER_H_
#define GRAPHRARE_CORE_TRAINER_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "data/sampler.h"
#include "data/splits.h"
#include "entropy/relative_entropy.h"
#include "nn/trainer.h"
#include "rl/ppo.h"
#include "serve/artifact.h"
#include "core/edit_merger.h"
#include "core/reward.h"
#include "core/topology_optimizer.h"

namespace graphrare {
namespace core {

/// How per-node (k, d) values are chosen each iteration.
enum class PolicyMode {
  kDrl,     ///< PPO agent (GraphRARE proper)
  kFixed,   ///< same fixed (k, d) for every node (Fig. 5 grids)
  kRandom,  ///< per-node uniform random (Table V GCN-RE[0..x])
};

/// Whether entropy sequences are real or shuffled (Table V GCN-RA).
enum class SequenceMode {
  kEntropy,
  kShuffled,
};

/// Full configuration of one GraphRARE run.
struct GraphRareOptions {
  nn::BackboneKind backbone = nn::BackboneKind::kGcn;
  // Backbone hyper-parameters (paper Sec. V-C).
  int64_t hidden = 64;
  int num_layers = 2;
  float dropout = 0.5f;
  int gat_heads = 4;
  nn::Adam::Options adam;

  entropy::EntropyOptions entropy;
  rl::PpoOptions ppo;
  RewardOptions reward;

  /// Number of co-training iterations (DRL steps).
  int iterations = 24;
  /// Initial supervised epochs on G_0 before co-training.
  int pretrain_epochs = 50;
  int pretrain_patience = 15;
  /// "Train the GNN for a few more epochs" when accuracy improves.
  int finetune_epochs = 5;

  int k_max = 5;
  int d_max = 5;

  PolicyMode policy_mode = PolicyMode::kDrl;
  int fixed_k = 3;        ///< PolicyMode::kFixed
  int fixed_d = 2;
  int random_k_max = 5;   ///< PolicyMode::kRandom upper bounds
  int random_d_max = 5;

  SequenceMode sequence_mode = SequenceMode::kEntropy;
  bool enable_add = true;      ///< Table V GCN-RARE-remove sets this false
  bool enable_remove = true;   ///< Table V GCN-RARE-add sets this false

  uint64_t seed = 1;

  Status Validate() const;
};

/// Subsystem seeds fanned out from one master seed. GraphRareTrainer::Run,
/// the block-rollout co-training path, and the CLI's --seed flag all derive
/// through here, so every stochastic subsystem (entropy candidate sampling,
/// PPO init, neighbor sampler, env, epoch shuffling, splits) is pinned by a
/// single number instead of each defaulting its own seed independently.
struct DerivedSeeds {
  uint64_t entropy;
  uint64_t ppo;
  uint64_t sampler;
  uint64_t env;
  uint64_t shuffle;
  uint64_t splits;
  uint64_t run;  ///< trainer-internal rng (random policy mode, ablations)
  uint64_t partition;  ///< locality partitioner (data::Partitioner)
};

DerivedSeeds DeriveSeeds(uint64_t master);

/// Packages a trained backbone + topology + a dataset's features into a
/// deployable serve::ModelArtifact. Shared implementation behind the
/// result structs' ExportArtifact hooks; also usable for plain baselines.
Result<serve::ModelArtifact> PackageArtifact(
    const nn::NodeClassifier& model, nn::BackboneKind backbone,
    const nn::ModelOptions& model_options, uint64_t seed,
    const graph::Graph& graph, const data::Dataset& dataset);

/// Builds `options`' backbone configuration for `dataset` (input width and
/// class count from the data, the rest from the options, seeded with the
/// master seed). Both co-training paths construct their model from it.
nn::ModelOptions ModelOptionsFor(const data::Dataset& dataset,
                                 const GraphRareOptions& options);

/// Algorithm 1, lines 1-6: the relative-entropy index on G_0, seeded from
/// DeriveSeeds(options.seed).entropy and, under SequenceMode::kShuffled,
/// shuffled with `run_rng`. Stores the wall time in `*seconds`.
entropy::RelativeEntropyIndex BuildRunIndex(const data::Dataset& dataset,
                                            const GraphRareOptions& options,
                                            Rng* run_rng, double* seconds);

/// One block-rollout round's worth of scheduler + merge telemetry.
struct BlockRoundTelemetry {
  int round = 0;
  int num_blocks = 0;
  /// Sum of block node counts this round.
  int64_t block_nodes = 0;
  /// EditMerger conflict accounting for the round (see ConflictStats).
  ConflictStats conflicts;
  double mean_reward = 0.0;
  /// Full-graph validation accuracy on the merged topology.
  double val_accuracy = 0.0;
};

/// Everything a run reports (feeds Tables III-VI and Figs. 5-7), plus the
/// deployable outcome: the co-trained backbone with its best
/// (validation-selected) weights and the graph it was selected on. The
/// model+graph pair is the product of a GraphRARE run — ExportArtifact
/// packages it for serve::InferenceEngine. Both GraphRareTrainer::Run and
/// RunBlockCoTraining return it; each fills the telemetry its loop has.
struct GraphRareResult {
  double test_accuracy = 0.0;
  double best_val_accuracy = 0.0;
  double initial_homophily = 0.0;
  double final_homophily = 0.0;  ///< homophily of the best (selected) graph
  int64_t initial_edges = 0;
  int64_t final_edges = 0;
  double entropy_build_seconds = 0.0;
  double train_seconds = 0.0;

  // Per-iteration telemetry (Fig. 6). The block path records one entry
  // per round in reward_history (mean reward) and val_acc_history only.
  std::vector<double> train_acc_history;
  std::vector<double> val_acc_history;
  std::vector<double> homophily_history;
  std::vector<double> reward_history;

  // Block path only: env steps taken and per-round scheduler and
  // merge-conflict telemetry (also logged live).
  int64_t env_steps = 0;
  std::vector<BlockRoundTelemetry> round_telemetry;

  graph::Graph best_graph;

  /// The trained backbone, holding the weights that produced
  /// test_accuracy. Shared so results stay copyable; never null after a
  /// successful Run.
  std::shared_ptr<nn::NodeClassifier> model;
  /// Architecture the model was built with (artifact metadata).
  nn::BackboneKind backbone = nn::BackboneKind::kGcn;
  nn::ModelOptions model_options;
  /// Master seed of the producing run (artifact provenance).
  uint64_t seed = 0;

  /// Packages model + best_graph + the dataset's features into a
  /// deployable serve::ModelArtifact. Fails if the result holds no model
  /// (default-constructed / legacy results).
  Result<serve::ModelArtifact> ExportArtifact(
      const data::Dataset& dataset) const;
};

/// Mini-batch supervised training configuration: neighbor-sampled blocks
/// for the optimization steps, full-graph forward passes for evaluation.
struct MiniBatchOptions {
  data::SamplerOptions sampler;
  int64_t batch_size = 256;
  int max_epochs = 100;
  int patience = 20;
  /// Reshuffle the seed order every epoch. When false, batch composition
  /// is identical every epoch; only the sampled neighborhoods still vary,
  /// through the sampler's block counter.
  bool shuffle = true;

  Status Validate() const;
};

/// Outcome of a FitMiniBatch run.
struct MiniBatchFitResult {
  int epochs_run = 0;
  int64_t batches_run = 0;
  double best_val_accuracy = 0.0;
  int best_epoch = -1;
  /// Per-epoch seed-weighted means over the epoch's batches.
  std::vector<double> train_loss_history;
  std::vector<double> train_acc_history;
  /// Per-epoch full-graph validation accuracy.
  std::vector<double> val_acc_history;
};

/// Trains on sampled blocks with early stopping on full-graph validation
/// accuracy; restores the best weights before returning. `seed` drives the
/// epoch shuffling (the sampler's own seed lives in options.sampler).
MiniBatchFitResult FitMiniBatch(nn::MiniBatchTrainer* trainer,
                                const graph::Graph& g,
                                const std::vector<int64_t>& train_idx,
                                const std::vector<int64_t>& val_idx,
                                const MiniBatchOptions& options,
                                uint64_t seed);

/// Runs Algorithm 1 on one dataset split.
class GraphRareTrainer {
 public:
  /// `dataset` must outlive the trainer.
  GraphRareTrainer(const data::Dataset* dataset, GraphRareOptions options);

  GraphRareResult Run(const data::Split& split);

 private:
  /// One evaluation forward on `g` with the trainer's current weights: the
  /// reward inputs over split.train and, when `val_accuracy` is non-null,
  /// the accuracy over split.val.
  RewardInputs EvaluateForReward(nn::ClassifierTrainer* trainer,
                                 const graph::Graph& g,
                                 const data::Split& split,
                                 double* val_accuracy);

  const data::Dataset* dataset_;
  GraphRareOptions options_;
  std::unique_ptr<entropy::RelativeEntropyIndex> index_;
};

}  // namespace core
}  // namespace graphrare

#endif  // GRAPHRARE_CORE_TRAINER_H_
