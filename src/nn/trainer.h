// Copyright 2026 The GraphRARE Authors.
//
// Supervised training driver for node classifiers. Exposes both a
// full-fit-with-early-stopping entry point (baselines) and single-epoch /
// evaluate-only steps (the GraphRARE co-training loop interleaves these
// with RL updates).

#ifndef GRAPHRARE_NN_TRAINER_H_
#define GRAPHRARE_NN_TRAINER_H_

#include <memory>
#include <vector>

#include "graph/subgraph.h"
#include "nn/metrics.h"
#include "nn/models.h"
#include "nn/optim.h"

namespace graphrare {
namespace nn {

/// Loss/accuracy pair from one evaluation.
struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
};

/// Outcome of a Fit() run.
struct FitResult {
  int epochs_run = 0;
  double best_val_accuracy = 0.0;
  int best_epoch = -1;
  std::vector<double> train_acc_history;
  std::vector<double> val_acc_history;
};

/// Trains/evaluates a NodeClassifier on (graph, features, labels).
/// The graph is a per-call argument so the same trainer follows rewired
/// topologies during co-training.
class ClassifierTrainer {
 public:
  struct Options {
    Adam::Options adam;
    uint64_t seed = 1;  ///< dropout stream
  };

  /// `model` and `labels` must outlive the trainer.
  ClassifierTrainer(NodeClassifier* model, LayerInput features,
                    const std::vector<int64_t>* labels,
                    const Options& options);

  /// One optimization epoch (full-batch) on `train_idx`; returns post-update
  /// training loss/accuracy computed from the same forward pass.
  EvalResult TrainEpoch(const graph::Graph& g,
                        const std::vector<int64_t>& train_idx);

  /// Evaluation (no dropout, no gradients) on `idx`.
  EvalResult Evaluate(const graph::Graph& g, const std::vector<int64_t>& idx);

  /// One evaluation forward scored on every index set in `idx_sets`, in
  /// order; each result is bitwise what Evaluate(g, *set) returns. When
  /// `logits` is non-null it receives the forward's full logits (for AUC),
  /// so one forward feeds every metric of one (weights, graph) pair.
  std::vector<EvalResult> Evaluate(
      const graph::Graph& g,
      const std::vector<const std::vector<int64_t>*>& idx_sets,
      tensor::Tensor* logits = nullptr);

  /// Trains with early stopping on validation accuracy; restores the best
  /// weights before returning.
  FitResult Fit(const graph::Graph& g, const std::vector<int64_t>& train_idx,
                const std::vector<int64_t>& val_idx, int max_epochs,
                int patience);

  /// Deep-copies all parameter tensors (early-stopping snapshots).
  std::vector<tensor::Tensor> SaveWeights() const;
  void LoadWeights(const std::vector<tensor::Tensor>& weights);

  NodeClassifier* model() { return model_; }
  Adam* optimizer() { return optimizer_.get(); }

 private:
  NodeClassifier* model_;
  LayerInput features_;
  const std::vector<int64_t>* labels_;
  std::unique_ptr<Adam> optimizer_;
  Rng dropout_rng_;
};

/// Mini-batch trainer: optimizes the model one sampled block at a time
/// (the block comes from data::NeighborSampler via graph::InducedSubgraph)
/// while evaluation stays full-graph. Per-step memory and compute scale
/// with the block, not the whole adjacency, which is what lets training
/// reach graphs far beyond full-graph SpMM budgets.
class MiniBatchTrainer {
 public:
  struct Options {
    Adam::Options adam;
    uint64_t seed = 1;  ///< dropout stream
  };

  /// `model` and `labels` must outlive the trainer. `features` is the
  /// *global* feature matrix; per-batch slices are taken per block.
  MiniBatchTrainer(NodeClassifier* model,
                   std::shared_ptr<const tensor::CsrMatrix> features,
                   const std::vector<int64_t>* labels,
                   const Options& options);

  /// One optimization step on a sampled block; loss/accuracy are over the
  /// block's seed nodes, from the same forward pass that produced the
  /// update.
  EvalResult TrainBatch(const graph::Subgraph& block);

  /// Full-graph evaluation (no dropout, no gradients) on `idx`.
  EvalResult Evaluate(const graph::Graph& g, const std::vector<int64_t>& idx);

  /// Block-scoped evaluation (no dropout, no gradients): forward on
  /// block.graph with the block's feature rows, loss/accuracy over the
  /// block's seed nodes. On an identity block (graph::FullSubgraph) this
  /// reproduces Evaluate(g, seeds) bitwise — the block-rollout RL reward
  /// path relies on that for its full-graph special case.
  EvalResult EvaluateBlock(const graph::Subgraph& block);

  /// Block-graph logits in eval mode (one row per *local* node).
  tensor::Tensor EvalLogitsBlock(const graph::Subgraph& block);

  std::vector<tensor::Tensor> SaveWeights() const {
    return full_.SaveWeights();
  }
  void LoadWeights(const std::vector<tensor::Tensor>& weights) {
    full_.LoadWeights(weights);
  }

  NodeClassifier* model() { return full_.model(); }
  Adam* optimizer() { return full_.optimizer(); }

 private:
  /// Full-graph twin: owns the optimizer and the evaluation paths so the
  /// two training modes share one Adam state and weight snapshots.
  ClassifierTrainer full_;
  std::shared_ptr<const tensor::CsrMatrix> features_;
  const std::vector<int64_t>* labels_;
  Rng dropout_rng_;
};

}  // namespace nn
}  // namespace graphrare

#endif  // GRAPHRARE_NN_TRAINER_H_
