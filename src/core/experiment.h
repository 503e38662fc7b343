// Copyright 2026 The GraphRARE Authors.
//
// Multi-split experiment runners shared by the benches and examples: train a
// configuration on every split and aggregate mean +/- std, following the
// paper's protocol (test accuracy at best validation accuracy, averaged
// over random splits).

#ifndef GRAPHRARE_CORE_EXPERIMENT_H_
#define GRAPHRARE_CORE_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/registry.h"
#include "data/splits.h"
#include "core/block_rollout.h"
#include "core/rewiring_baselines.h"
#include "core/trainer.h"

namespace graphrare {
namespace core {

/// Mean/std aggregate of per-split values.
struct RunStats {
  double mean = 0.0;
  double stddev = 0.0;
  std::vector<double> values;
};

RunStats Aggregate(const std::vector<double>& values);

/// Shared experiment configuration (baseline fitting budget). Depth,
/// dropout and GAT heads are nn::ModelOptions' paper defaults.
struct ExperimentOptions {
  int num_splits = 10;
  int max_epochs = 150;
  int patience = 25;
  int64_t hidden = 64;
  nn::Adam::Options adam;
  uint64_t seed = 7;

  ExperimentOptions() {
    adam.lr = 0.01f;
    adam.weight_decay = 5e-5f;
  }
};

/// Aggregate of a backbone baseline run. `seconds_per_epoch` feeds Table VI.
struct BaselineAggregate {
  RunStats accuracy;
  double seconds_per_epoch = 0.0;
};

/// Trains `kind` on each split over the given graph (defaults to the
/// dataset's original topology) and reports test accuracy stats.
BaselineAggregate RunBackbone(const data::Dataset& dataset,
                              const std::vector<data::Split>& splits,
                              nn::BackboneKind kind,
                              const ExperimentOptions& options,
                              const graph::Graph* graph_override = nullptr);

/// Same, with a caller-provided model factory (custom baselines). The
/// factory receives the per-split seed.
BaselineAggregate RunCustomModel(
    const data::Dataset& dataset, const std::vector<data::Split>& splits,
    const std::function<std::unique_ptr<nn::NodeClassifier>(uint64_t seed)>&
        factory,
    const ExperimentOptions& options,
    const graph::Graph* graph_override = nullptr);

/// Trains `kind` on each split with neighbor-sampled mini-batches
/// (evaluation stays full-graph) and reports test accuracy stats.
/// `options.max_epochs`/`patience` are overridden by `mb.max_epochs`/
/// `mb.patience`; the rest of `options` (model size, Adam, seed) applies
/// unchanged so full-graph and mini-batch runs are directly comparable.
BaselineAggregate RunBackboneMiniBatch(const data::Dataset& dataset,
                                       const std::vector<data::Split>& splits,
                                       nn::BackboneKind kind,
                                       const ExperimentOptions& options,
                                       const MiniBatchOptions& mb,
                                       const graph::Graph* graph_override =
                                           nullptr);

/// Aggregate of a GraphRARE run across splits.
struct GraphRareAggregate {
  RunStats accuracy;
  double mean_initial_homophily = 0.0;
  double mean_final_homophily = 0.0;
  double mean_entropy_seconds = 0.0;
  double mean_train_seconds = 0.0;
  double seconds_per_epoch = 0.0;
  /// Telemetry of the final split's run (Fig. 6).
  GraphRareResult last_run;
};

/// Runs GraphRARE (options.backbone et al.) on every split. The per-split
/// seed is derived from options.seed + split index.
GraphRareAggregate RunGraphRare(const data::Dataset& dataset,
                                const std::vector<data::Split>& splits,
                                const GraphRareOptions& options);

/// Runs block-scoped GraphRARE co-training (core/block_rollout.h) on every
/// split, with the same per-split seed derivation as RunGraphRare so the
/// two paths are directly comparable. `rollout` carries the block
/// scheduler knobs; its MDP/env fields are overridden per split from
/// `options` (see RunBlockCoTraining).
GraphRareAggregate RunGraphRareBlocks(const data::Dataset& dataset,
                                      const std::vector<data::Split>& splits,
                                      const GraphRareOptions& options,
                                      const BlockRolloutOptions& rollout);

/// Quick-mode helpers for the bench binaries: GRARE_BENCH_FULL=1 restores
/// the paper-scale protocol; otherwise sizes are reduced so the whole bench
/// suite completes in minutes on a laptop CPU.
bool BenchFullScale();
int BenchNumSplits(int full_scale = 10, int quick = 2);

}  // namespace core
}  // namespace graphrare

#endif  // GRAPHRARE_CORE_EXPERIMENT_H_
