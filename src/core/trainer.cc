#include "core/trainer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "nn/metrics.h"
#include "core/observation.h"

namespace graphrare {
namespace core {

Status GraphRareOptions::Validate() const {
  if (hidden < 1) return Status::InvalidArgument("hidden must be >= 1");
  if (num_layers < 1) {
    return Status::InvalidArgument("num_layers must be >= 1");
  }
  if (dropout < 0.0f || dropout >= 1.0f) {
    return Status::InvalidArgument("dropout must be in [0, 1)");
  }
  if (iterations < 1) {
    return Status::InvalidArgument("iterations must be >= 1");
  }
  if (pretrain_epochs < 0 || finetune_epochs < 0) {
    return Status::InvalidArgument("epoch counts must be non-negative");
  }
  if (k_max < 0 || d_max < 0) {
    return Status::InvalidArgument("k_max/d_max must be non-negative");
  }
  if (k_max == 0 && d_max == 0) {
    return Status::InvalidArgument("k_max and d_max cannot both be zero");
  }
  if (fixed_k < 0 || fixed_d < 0 || random_k_max < 0 || random_d_max < 0) {
    return Status::InvalidArgument("fixed/random bounds must be >= 0");
  }
  GR_RETURN_IF_ERROR(entropy.Validate());
  GR_RETURN_IF_ERROR(ppo.Validate());
  return Status::OK();
}

Result<serve::ModelArtifact> PackageArtifact(
    const nn::NodeClassifier& model, nn::BackboneKind backbone,
    const nn::ModelOptions& model_options, uint64_t seed,
    const graph::Graph& graph, const data::Dataset& dataset) {
  serve::ModelArtifact artifact;
  artifact.backbone = backbone;
  artifact.model_options = model_options;
  artifact.weights = model.StateDict();
  artifact.graph = graph;
  artifact.features = dataset.FeaturesCsr();
  artifact.labels = dataset.labels;
  artifact.dataset_name = dataset.name;
  artifact.seed = seed;
  GR_RETURN_IF_ERROR(artifact.Validate());
  return artifact;
}

Result<serve::ModelArtifact> GraphRareResult::ExportArtifact(
    const data::Dataset& dataset) const {
  if (model == nullptr) {
    return Status::FailedPrecondition(
        "result holds no trained model (was it produced by "
        "GraphRareTrainer::Run or RunBlockCoTraining?)");
  }
  return PackageArtifact(*model, backbone, model_options, seed, best_graph,
                         dataset);
}

DerivedSeeds DeriveSeeds(uint64_t master) {
  DerivedSeeds s;
  // The entropy/ppo/run formulas predate this helper; they are kept
  // verbatim so existing trajectories (benches, determinism tests) are
  // unchanged.
  s.entropy = master * 977 + 11;
  s.ppo = master * 31 + 7;
  s.run = master * 0x51D4ULL + 3;
  s.sampler = master * 131 + 17;
  s.env = master * 53 + 29;
  s.shuffle = master * 7 + 3;
  s.splits = master + 100;
  s.partition = master * 211 + 41;
  return s;
}

nn::ModelOptions ModelOptionsFor(const data::Dataset& dataset,
                                 const GraphRareOptions& options) {
  nn::ModelOptions mo;
  mo.in_features = dataset.num_features();
  mo.hidden = options.hidden;
  mo.num_classes = dataset.num_classes;
  mo.num_layers = options.num_layers;
  mo.dropout = options.dropout;
  mo.gat_heads = options.gat_heads;
  mo.seed = options.seed;
  return mo;
}

entropy::RelativeEntropyIndex BuildRunIndex(const data::Dataset& dataset,
                                            const GraphRareOptions& options,
                                            Rng* run_rng, double* seconds) {
  GR_CHECK(run_rng != nullptr && seconds != nullptr);
  Stopwatch watch;
  entropy::EntropyOptions entropy_opts = options.entropy;
  entropy_opts.seed = DeriveSeeds(options.seed).entropy;
  auto index_or = entropy::RelativeEntropyIndex::Build(
      dataset.graph, dataset.features, entropy_opts);
  GR_CHECK(index_or.ok()) << index_or.status().ToString();
  entropy::RelativeEntropyIndex index = std::move(index_or).value();
  if (options.sequence_mode == SequenceMode::kShuffled) {
    index.ShuffleSequences(run_rng);
  }
  *seconds = watch.ElapsedSeconds();
  return index;
}

Status MiniBatchOptions::Validate() const {
  if (batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (max_epochs < 1) {
    return Status::InvalidArgument("max_epochs must be >= 1");
  }
  if (patience < 1) return Status::InvalidArgument("patience must be >= 1");
  return sampler.Validate();
}

MiniBatchFitResult FitMiniBatch(nn::MiniBatchTrainer* trainer,
                                const graph::Graph& g,
                                const std::vector<int64_t>& train_idx,
                                const std::vector<int64_t>& val_idx,
                                const MiniBatchOptions& options,
                                uint64_t seed) {
  GR_CHECK(trainer != nullptr);
  GR_CHECK(!train_idx.empty());
  GR_CHECK(!val_idx.empty());
  GR_CHECK_OK(options.Validate());

  data::NeighborSampler sampler(&g, options.sampler);
  Rng shuffle_rng(seed ^ 0xB47C4E5ULL);

  MiniBatchFitResult result;
  std::vector<tensor::Tensor> best_weights = trainer->SaveWeights();
  int since_best = 0;
  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    const auto batches = data::NeighborSampler::MakeBatches(
        train_idx, options.batch_size, options.shuffle, &shuffle_rng);
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    int64_t seeds_seen = 0;
    for (const auto& batch : batches) {
      const graph::Subgraph block = sampler.SampleBlock(batch);
      const nn::EvalResult step = trainer->TrainBatch(block);
      const auto weight = static_cast<double>(batch.size());
      loss_sum += step.loss * weight;
      acc_sum += step.accuracy * weight;
      seeds_seen += static_cast<int64_t>(batch.size());
      ++result.batches_run;
    }
    result.train_loss_history.push_back(loss_sum /
                                        static_cast<double>(seeds_seen));
    result.train_acc_history.push_back(acc_sum /
                                       static_cast<double>(seeds_seen));
    const double val_acc = trainer->Evaluate(g, val_idx).accuracy;
    result.val_acc_history.push_back(val_acc);
    ++result.epochs_run;
    if (val_acc > result.best_val_accuracy) {
      result.best_val_accuracy = val_acc;
      result.best_epoch = epoch;
      best_weights = trainer->SaveWeights();
      since_best = 0;
    } else if (++since_best >= options.patience) {
      break;
    }
  }
  trainer->LoadWeights(best_weights);
  return result;
}

GraphRareTrainer::GraphRareTrainer(const data::Dataset* dataset,
                                   GraphRareOptions options)
    : dataset_(dataset), options_(std::move(options)) {
  GR_CHECK(dataset != nullptr);
  GR_CHECK_OK(options_.Validate());
}

RewardInputs GraphRareTrainer::EvaluateForReward(
    nn::ClassifierTrainer* trainer, const graph::Graph& g,
    const data::Split& split, double* val_accuracy) {
  std::vector<const std::vector<int64_t>*> idx_sets = {&split.train};
  if (val_accuracy != nullptr) idx_sets.push_back(&split.val);
  const bool auc = options_.reward.kind == RewardKind::kAuc;
  tensor::Tensor logits;
  const std::vector<nn::EvalResult> evals =
      trainer->Evaluate(g, idx_sets, auc ? &logits : nullptr);
  RewardInputs out;
  out.accuracy = evals[0].accuracy;
  out.loss = evals[0].loss;
  if (auc) {
    out.auc = nn::MacroAucOvr(logits, dataset_->labels, split.train,
                              dataset_->num_classes);
  }
  if (val_accuracy != nullptr) *val_accuracy = evals[1].accuracy;
  return out;
}

GraphRareResult GraphRareTrainer::Run(const data::Split& split) {
  const graph::Graph& g0 = dataset_->graph;
  const int64_t n = g0.num_nodes();
  const DerivedSeeds seeds = DeriveSeeds(options_.seed);
  Rng run_rng(seeds.run);

  GraphRareResult result;
  result.initial_homophily = g0.EdgeHomophily(dataset_->labels);
  result.initial_edges = g0.num_edges();

  // --- Node relative entropy, computed once (Algorithm 1, lines 1-6). ---
  index_ = std::make_unique<entropy::RelativeEntropyIndex>(BuildRunIndex(
      *dataset_, options_, &run_rng, &result.entropy_build_seconds));

  // --- Backbone + supervised trainer. ---
  Stopwatch train_watch;
  const nn::ModelOptions model_opts = ModelOptionsFor(*dataset_, options_);
  auto model = nn::MakeModel(options_.backbone, model_opts);

  nn::ClassifierTrainer::Options trainer_opts;
  trainer_opts.adam = options_.adam;
  trainer_opts.seed = options_.seed;
  nn::ClassifierTrainer trainer(
      model.get(), nn::LayerInput::Sparse(dataset_->FeaturesCsr()),
      &dataset_->labels, trainer_opts);

  // Pretrain on G_0 so accuracy/loss deltas are informative rewards.
  if (options_.pretrain_epochs > 0) {
    trainer.Fit(g0, split.train, split.val, options_.pretrain_epochs,
                options_.pretrain_patience);
  }

  // --- Co-training state. ---
  TopologyState state(n, options_.k_max, options_.d_max);
  graph::Graph current = g0;
  std::unique_ptr<rl::PpoAgent> agent;
  if (options_.policy_mode == PolicyMode::kDrl) {
    rl::PpoOptions ppo_opts = options_.ppo;
    ppo_opts.seed = seeds.ppo;
    agent = std::make_unique<rl::PpoAgent>(kObservationDim, ppo_opts);
  }
  TopologyOptimizerOptions topo_opts;
  topo_opts.enable_add = options_.enable_add;
  topo_opts.enable_remove = options_.enable_remove;

  // One evaluation forward per (weights, graph) pair feeds every metric
  // taken on it: reward inputs, validation accuracy and AUC.
  double val_acc = 0.0;
  RewardInputs prev = EvaluateForReward(&trainer, current, split, &val_acc);
  // Algorithm 1 initialises max_acc = 0, so the first iteration always
  // fine-tunes regardless of pretraining.
  double max_train_acc = 0.0;
  double last_reward = 0.0;
  bool reward_pending = false;  // PPO: Act() issued, reward not yet stored

  std::vector<tensor::Tensor> best_weights = trainer.SaveWeights();
  result.best_graph = current;
  result.best_val_accuracy = val_acc;
  double best_val = result.best_val_accuracy;

  for (int t = 0; t < options_.iterations; ++t) {
    // (line 9) Evaluate the GNN on the current graph, no parameter update.
    // At t = 0 neither the weights nor the graph changed since `prev`.
    RewardInputs curr = prev;
    if (t > 0) curr = EvaluateForReward(&trainer, current, split, &val_acc);

    // (lines 10-13) Extra supervised epochs when the topology helped. The
    // gate is >= rather than >: once training accuracy saturates (common on
    // the small WebKB graphs) a strict inequality would freeze the GNN
    // forever and the co-training could never adapt to rewired graphs.
    if (curr.accuracy >= max_train_acc && options_.finetune_epochs > 0) {
      max_train_acc = curr.accuracy;
      int since_best = 0;
      double ft_best_val = -1.0;
      for (int e = 0; e < options_.finetune_epochs; ++e) {
        trainer.TrainEpoch(current, split.train);
        val_acc = trainer.Evaluate(current, split.val).accuracy;
        if (val_acc > ft_best_val) {
          ft_best_val = val_acc;
          since_best = 0;
        } else if (++since_best >= 3) {
          break;  // early stop: avoid overfitting to G_t (Sec. IV-B)
        }
      }
    }

    // (line 14) Reward from the performance delta (Eq. 11).
    const double reward = ComputeReward(options_.reward, prev, curr);
    prev = curr;
    last_reward = reward;
    result.reward_history.push_back(reward);
    result.train_acc_history.push_back(curr.accuracy);
    result.homophily_history.push_back(
        current.EdgeHomophily(dataset_->labels));

    // Model selection on validation accuracy (Sec. V-C protocol). val_acc
    // is on the current weights: line 9's forward, or the finetune loop's
    // last check when it ran.
    result.val_acc_history.push_back(val_acc);
    if (val_acc > best_val) {
      best_val = val_acc;
      best_weights = trainer.SaveWeights();
      result.best_graph = current;
    }

    // (lines 15-16) Action and state transition.
    const tensor::Tensor obs =
        BuildObservation(g0, current, state, *index_, last_reward);
    switch (options_.policy_mode) {
      case PolicyMode::kDrl: {
        if (reward_pending) {
          agent->StoreReward(reward);
          if (agent->ReadyToUpdate()) agent->Update(obs);
        }
        const rl::ActionSample action = agent->Act(obs);
        reward_pending = true;
        state.Apply(action);
        break;
      }
      case PolicyMode::kFixed:
        state.SetUniform(options_.fixed_k, options_.fixed_d);
        break;
      case PolicyMode::kRandom:
        state.SetRandom(options_.random_k_max, options_.random_d_max,
                        &run_rng);
        break;
    }

    // (line 17) Rebuild the topology for the next iteration.
    current = BuildOptimizedGraph(g0, state, *index_, topo_opts);
  }

  // Close out the last pending PPO transition.
  if (agent && reward_pending) {
    const RewardInputs final_eval =
        EvaluateForReward(&trainer, current, split, nullptr);
    agent->StoreReward(ComputeReward(options_.reward, prev, final_eval));
  }

  // --- Final selection and test metric. ---
  trainer.LoadWeights(best_weights);
  result.best_val_accuracy = best_val;
  result.test_accuracy =
      trainer.Evaluate(result.best_graph, split.test).accuracy;
  result.final_homophily =
      result.best_graph.EdgeHomophily(dataset_->labels);
  result.final_edges = result.best_graph.num_edges();
  result.train_seconds = train_watch.ElapsedSeconds();

  // Hand the co-trained backbone (best weights already restored) back to
  // the caller — it is half of the deployable product.
  result.model = std::move(model);
  result.backbone = options_.backbone;
  result.model_options = model_opts;
  result.seed = options_.seed;
  return result;
}

}  // namespace core
}  // namespace graphrare
