#include "nn/trainer.h"

#include "tensor/ops.h"

namespace graphrare {
namespace nn {

namespace ops = tensor::ops;
using tensor::Variable;

ClassifierTrainer::ClassifierTrainer(NodeClassifier* model,
                                     LayerInput features,
                                     const std::vector<int64_t>* labels,
                                     const Options& options)
    : model_(model),
      features_(std::move(features)),
      labels_(labels),
      dropout_rng_(options.seed ^ 0xA5A5A5A5ULL) {
  GR_CHECK(model != nullptr);
  GR_CHECK(labels != nullptr);
  optimizer_ = std::make_unique<Adam>(model->Parameters(), options.adam);
}

namespace {

std::vector<int64_t> SubsetLabels(const std::vector<int64_t>& labels,
                                  const std::vector<int64_t>& index) {
  std::vector<int64_t> out;
  out.reserve(index.size());
  for (int64_t i : index) out.push_back(labels[static_cast<size_t>(i)]);
  return out;
}

/// Loss/accuracy over a block's seed nodes, from already-computed block
/// logits. Seed labels are scattered into local-row terms so the shared
/// Accuracy metric applies unchanged.
EvalResult BlockSeedMetrics(const tensor::Tensor& logits, double loss,
                            const graph::Subgraph& block,
                            const std::vector<int64_t>& seed_labels) {
  EvalResult result;
  result.loss = loss;
  std::vector<int64_t> local_labels(block.nodes.size(), 0);
  for (size_t i = 0; i < block.seed_local.size(); ++i) {
    local_labels[static_cast<size_t>(block.seed_local[i])] = seed_labels[i];
  }
  result.accuracy = Accuracy(logits, local_labels, block.seed_local);
  return result;
}

}  // namespace

EvalResult ClassifierTrainer::TrainEpoch(
    const graph::Graph& g, const std::vector<int64_t>& train_idx) {
  GR_CHECK(!train_idx.empty());
  ModelInputs inputs;
  inputs.graph = &g;
  inputs.features = features_;

  model_->ZeroGrad();
  Variable logits = model_->Logits(inputs, /*training=*/true, &dropout_rng_);
  const std::vector<int64_t> y = SubsetLabels(*labels_, train_idx);
  Variable loss = ops::CrossEntropy(logits, train_idx, y);
  loss.Backward();
  optimizer_->Step();

  EvalResult result;
  result.loss = loss.value().scalar();
  result.accuracy = Accuracy(logits.value(), *labels_, train_idx);
  return result;
}

EvalResult ClassifierTrainer::Evaluate(const graph::Graph& g,
                                       const std::vector<int64_t>& idx) {
  return Evaluate(g, {&idx}).front();
}

std::vector<EvalResult> ClassifierTrainer::Evaluate(
    const graph::Graph& g,
    const std::vector<const std::vector<int64_t>*>& idx_sets,
    tensor::Tensor* logits) {
  ModelInputs inputs;
  inputs.graph = &g;
  inputs.features = features_;
  const Variable out =
      model_->Logits(inputs, /*training=*/false, nullptr).Detach();
  std::vector<EvalResult> results;
  for (const std::vector<int64_t>* idx : idx_sets) {
    GR_CHECK(idx != nullptr && !idx->empty());
    const std::vector<int64_t> y = SubsetLabels(*labels_, *idx);
    EvalResult result;
    result.loss = ops::CrossEntropy(out, *idx, y).value().scalar();
    result.accuracy = Accuracy(out.value(), *labels_, *idx);
    results.push_back(result);
  }
  if (logits != nullptr) *logits = out.value();
  return results;
}

FitResult ClassifierTrainer::Fit(const graph::Graph& g,
                                 const std::vector<int64_t>& train_idx,
                                 const std::vector<int64_t>& val_idx,
                                 int max_epochs, int patience) {
  GR_CHECK_GT(max_epochs, 0);
  GR_CHECK_GT(patience, 0);
  FitResult result;
  std::vector<tensor::Tensor> best_weights = SaveWeights();
  int since_best = 0;
  for (int epoch = 0; epoch < max_epochs; ++epoch) {
    const EvalResult train = TrainEpoch(g, train_idx);
    const EvalResult val = Evaluate(g, val_idx);
    result.train_acc_history.push_back(train.accuracy);
    result.val_acc_history.push_back(val.accuracy);
    ++result.epochs_run;
    if (val.accuracy > result.best_val_accuracy) {
      result.best_val_accuracy = val.accuracy;
      result.best_epoch = epoch;
      best_weights = SaveWeights();
      since_best = 0;
    } else if (++since_best >= patience) {
      break;
    }
  }
  LoadWeights(best_weights);
  return result;
}

MiniBatchTrainer::MiniBatchTrainer(
    NodeClassifier* model,
    std::shared_ptr<const tensor::CsrMatrix> features,
    const std::vector<int64_t>* labels, const Options& options)
    : full_(model, LayerInput::Sparse(features), labels,
            ClassifierTrainer::Options{options.adam, options.seed}),
      features_(std::move(features)),
      labels_(labels),
      dropout_rng_(options.seed ^ 0x3C3C3C3CULL) {
  GR_CHECK(features_ != nullptr);
}

EvalResult MiniBatchTrainer::TrainBatch(const graph::Subgraph& block) {
  GR_CHECK_GT(block.num_seeds(), 0);
  auto local_features = std::make_shared<tensor::CsrMatrix>(
      block.LocalRows(*features_));
  ModelInputs inputs;
  inputs.graph = &block.graph;
  inputs.features = LayerInput::Sparse(std::move(local_features));

  model()->ZeroGrad();
  Variable logits = model()->Logits(inputs, /*training=*/true, &dropout_rng_);
  std::vector<int64_t> y = SubsetLabels(*labels_, block.seed_global);
  Variable loss = ops::CrossEntropy(logits, block.seed_local, y);
  loss.Backward();
  optimizer()->Step();

  return BlockSeedMetrics(logits.value(), loss.value().scalar(), block, y);
}

EvalResult MiniBatchTrainer::Evaluate(const graph::Graph& g,
                                      const std::vector<int64_t>& idx) {
  return full_.Evaluate(g, idx);
}

EvalResult MiniBatchTrainer::EvaluateBlock(const graph::Subgraph& block) {
  GR_CHECK_GT(block.num_seeds(), 0);
  Variable logits(EvalLogitsBlock(block), /*requires_grad=*/false);
  const std::vector<int64_t> y = SubsetLabels(*labels_, block.seed_global);
  Variable loss = ops::CrossEntropy(logits, block.seed_local, y);
  return BlockSeedMetrics(logits.value(), loss.value().scalar(), block, y);
}

tensor::Tensor MiniBatchTrainer::EvalLogitsBlock(const graph::Subgraph& block) {
  auto local_features = std::make_shared<tensor::CsrMatrix>(
      block.LocalRows(*features_));
  ModelInputs inputs;
  inputs.graph = &block.graph;
  inputs.features = LayerInput::Sparse(std::move(local_features));
  return model()->Logits(inputs, /*training=*/false, nullptr).value();
}

std::vector<tensor::Tensor> ClassifierTrainer::SaveWeights() const {
  std::vector<tensor::Tensor> weights;
  for (const auto& p : model_->Parameters()) weights.push_back(p.value());
  return weights;
}

void ClassifierTrainer::LoadWeights(const std::vector<tensor::Tensor>& weights) {
  auto params = model_->Parameters();
  GR_CHECK_EQ(params.size(), weights.size());
  for (size_t i = 0; i < params.size(); ++i) {
    GR_CHECK(params[i].value().SameShape(weights[i]));
    *params[i].mutable_value() = weights[i];
  }
}

}  // namespace nn
}  // namespace graphrare
