#include "core/experiment.h"

#include <cmath>
#include <cstdlib>

#include "common/stopwatch.h"

namespace graphrare {
namespace core {

RunStats Aggregate(const std::vector<double>& values) {
  RunStats stats;
  stats.values = values;
  if (values.empty()) return stats;
  double sum = 0.0;
  for (double v : values) sum += v;
  stats.mean = sum / static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - stats.mean) * (v - stats.mean);
  // Sample standard deviation (ddof=1) to match the paper's +/- columns.
  stats.stddev = values.size() > 1
                     ? std::sqrt(var / static_cast<double>(values.size() - 1))
                     : 0.0;
  return stats;
}

namespace {

nn::ModelOptions ToModelOptions(const data::Dataset& dataset,
                                const ExperimentOptions& options,
                                uint64_t seed) {
  nn::ModelOptions mo;
  mo.in_features = dataset.num_features();
  mo.hidden = options.hidden;
  mo.num_classes = dataset.num_classes;
  mo.seed = seed;
  return mo;
}

/// One split's outcome, for AggregateSplitRuns. `seconds` covers the fit
/// only (model construction and test evaluation stay untimed).
struct SplitRun {
  double accuracy = 0.0;
  double seconds = 0.0;
  int64_t epochs = 0;
};

/// Shared per-split scaffolding: seed derivation and the accuracy /
/// seconds-per-epoch aggregation. Both the full-graph and the mini-batch
/// runners go through here so their results stay directly comparable
/// (identical per-split seeds).
BaselineAggregate AggregateSplitRuns(
    const std::vector<data::Split>& splits, uint64_t base_seed,
    const std::function<SplitRun(const data::Split&, uint64_t)>& run_split) {
  std::vector<double> accs;
  double total_seconds = 0.0;
  int64_t total_epochs = 0;
  for (size_t s = 0; s < splits.size(); ++s) {
    const uint64_t seed = base_seed + 1000 * (s + 1);
    const SplitRun run = run_split(splits[s], seed);
    total_seconds += run.seconds;
    total_epochs += run.epochs;
    accs.push_back(run.accuracy);
  }
  BaselineAggregate agg;
  agg.accuracy = Aggregate(accs);
  agg.seconds_per_epoch =
      total_epochs > 0 ? total_seconds / static_cast<double>(total_epochs)
                       : 0.0;
  return agg;
}

/// Shared per-split loop of RunGraphRare and RunGraphRareBlocks: per-split
/// seed derivation, means over splits, and the last split's full result.
/// `epochs` is the per-split epoch budget behind seconds_per_epoch.
GraphRareAggregate AggregateGraphRareRuns(
    const std::vector<data::Split>& splits, const GraphRareOptions& options,
    double epochs,
    const std::function<GraphRareResult(const data::Split&,
                                        const GraphRareOptions&)>& run_split) {
  GraphRareAggregate agg;
  std::vector<double> accs;
  for (size_t s = 0; s < splits.size(); ++s) {
    GraphRareOptions per_split = options;
    per_split.seed = options.seed + 1000 * (s + 1);
    GraphRareResult result = run_split(splits[s], per_split);
    accs.push_back(result.test_accuracy);
    agg.mean_initial_homophily += result.initial_homophily;
    agg.mean_final_homophily += result.final_homophily;
    agg.mean_entropy_seconds += result.entropy_build_seconds;
    agg.mean_train_seconds += result.train_seconds;
    if (s + 1 == splits.size()) agg.last_run = std::move(result);
  }
  const double inv = splits.empty()
                         ? 0.0
                         : 1.0 / static_cast<double>(splits.size());
  agg.accuracy = Aggregate(accs);
  agg.mean_initial_homophily *= inv;
  agg.mean_final_homophily *= inv;
  agg.mean_entropy_seconds *= inv;
  agg.mean_train_seconds *= inv;
  agg.seconds_per_epoch =
      epochs > 0 ? agg.mean_train_seconds / epochs : 0.0;
  return agg;
}

}  // namespace

BaselineAggregate RunBackbone(const data::Dataset& dataset,
                              const std::vector<data::Split>& splits,
                              nn::BackboneKind kind,
                              const ExperimentOptions& options,
                              const graph::Graph* graph_override) {
  return RunCustomModel(
      dataset, splits,
      [&](uint64_t seed) {
        return nn::MakeModel(kind, ToModelOptions(dataset, options, seed));
      },
      options, graph_override);
}

BaselineAggregate RunCustomModel(
    const data::Dataset& dataset, const std::vector<data::Split>& splits,
    const std::function<std::unique_ptr<nn::NodeClassifier>(uint64_t seed)>&
        factory,
    const ExperimentOptions& options, const graph::Graph* graph_override) {
  const graph::Graph& g = graph_override ? *graph_override : dataset.graph;
  return AggregateSplitRuns(
      splits, options.seed,
      [&](const data::Split& split, uint64_t seed) {
        auto model = factory(seed);
        nn::ClassifierTrainer::Options trainer_opts;
        trainer_opts.adam = options.adam;
        trainer_opts.seed = seed;
        nn::ClassifierTrainer trainer(
            model.get(), nn::LayerInput::Sparse(dataset.FeaturesCsr()),
            &dataset.labels, trainer_opts);
        Stopwatch watch;
        const nn::FitResult fit = trainer.Fit(
            g, split.train, split.val, options.max_epochs, options.patience);
        SplitRun run;
        run.seconds = watch.ElapsedSeconds();
        run.epochs = fit.epochs_run;
        run.accuracy = trainer.Evaluate(g, split.test).accuracy;
        return run;
      });
}

BaselineAggregate RunBackboneMiniBatch(const data::Dataset& dataset,
                                       const std::vector<data::Split>& splits,
                                       nn::BackboneKind kind,
                                       const ExperimentOptions& options,
                                       const MiniBatchOptions& mb,
                                       const graph::Graph* graph_override) {
  const graph::Graph& g = graph_override ? *graph_override : dataset.graph;
  return AggregateSplitRuns(
      splits, options.seed,
      [&](const data::Split& split, uint64_t seed) {
        auto model =
            nn::MakeModel(kind, ToModelOptions(dataset, options, seed));
        nn::MiniBatchTrainer::Options trainer_opts;
        trainer_opts.adam = options.adam;
        trainer_opts.seed = seed;
        nn::MiniBatchTrainer trainer(model.get(), dataset.FeaturesCsr(),
                                     &dataset.labels, trainer_opts);
        MiniBatchOptions per_split = mb;
        per_split.sampler.seed = mb.sampler.seed + 131 * seed;
        Stopwatch watch;
        const MiniBatchFitResult fit = FitMiniBatch(
            &trainer, g, split.train, split.val, per_split, seed);
        SplitRun run;
        run.seconds = watch.ElapsedSeconds();
        run.epochs = fit.epochs_run;
        run.accuracy = trainer.Evaluate(g, split.test).accuracy;
        return run;
      });
}

GraphRareAggregate RunGraphRare(const data::Dataset& dataset,
                                const std::vector<data::Split>& splits,
                                const GraphRareOptions& options) {
  // Rough per-epoch figure for Table VI: iterations + pretrain epochs.
  const double epochs = static_cast<double>(options.pretrain_epochs +
                                            options.iterations *
                                                (1 + options.finetune_epochs));
  return AggregateGraphRareRuns(
      splits, options, epochs,
      [&](const data::Split& split, const GraphRareOptions& per_split) {
        return GraphRareTrainer(&dataset, per_split).Run(split);
      });
}

GraphRareAggregate RunGraphRareBlocks(const data::Dataset& dataset,
                                      const std::vector<data::Split>& splits,
                                      const GraphRareOptions& options,
                                      const BlockRolloutOptions& rollout) {
  const double epochs = static_cast<double>(
      options.pretrain_epochs +
      options.iterations * rollout.steps_per_episode);
  return AggregateGraphRareRuns(
      splits, options, epochs,
      [&](const data::Split& split, const GraphRareOptions& per_split) {
        return RunBlockCoTraining(dataset, split, per_split, rollout);
      });
}

bool BenchFullScale() {
  const char* env = std::getenv("GRARE_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

int BenchNumSplits(int full_scale, int quick) {
  return BenchFullScale() ? full_scale : quick;
}

}  // namespace core
}  // namespace graphrare
