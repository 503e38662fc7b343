// Mini-batch training pipeline tests. The load-bearing property: with
// fanout >= max degree (full fanout) a mini-batch step on the induced
// subgraph reproduces the full-graph step on the same seed nodes *bitwise*
// — identical loss and identical parameter gradients. This holds because
// (a) local ids preserve ascending global order, so CSR rows of the
// sub-operators enumerate neighbors in the same relative order as the
// full-graph operators, and (b) enough sampling layers make every degree
// feeding the normalisation exact: L layers for row-normalised aggregation
// (SAGE), L+1 for symmetric GCN normalisation (boundary degrees).

#include <gtest/gtest.h>

#include "core/graphrare.h"
#include "test_support.h"

namespace graphrare {
namespace {

using testing_ref::AllClose;
using testing_ref::At;

using data::NeighborSampler;
using data::SamplerOptions;

data::Dataset MakeSparseDataset(uint64_t seed) {
  data::GeneratorOptions o;
  // Sparse on purpose: the k-hop closure of a few seeds must be a proper
  // subset of the graph or the equivalence test degenerates.
  o.num_nodes = 160;
  o.num_edges = 170;
  o.num_features = 40;
  o.num_classes = 3;
  o.homophily = 0.4;
  o.feature_density = 0.1;
  o.seed = seed;
  return std::move(data::GenerateDataset(o)).value();
}

nn::ModelOptions NoDropoutOptions(const data::Dataset& ds, uint64_t seed) {
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 12;
  mo.num_classes = ds.num_classes;
  mo.dropout = 0.0f;  // the two paths draw from different dropout streams
  mo.seed = seed;
  return mo;
}

std::vector<int64_t> SeedNodes(const data::Dataset& ds) {
  // A handful of nodes with neighbors, spread across the graph.
  std::vector<int64_t> seeds;
  for (int64_t v = 0; v < ds.num_nodes() && seeds.size() < 6; v += 23) {
    if (ds.graph.Degree(v) > 0) seeds.push_back(v);
  }
  return seeds;
}

/// Runs one loss+backward on the full graph and on a full-fanout block and
/// expects bitwise-identical loss and parameter gradients.
void ExpectFullFanoutEquivalence(nn::BackboneKind kind, size_t num_layers) {
  data::Dataset ds = MakeSparseDataset(11);
  const std::vector<int64_t> seeds = SeedNodes(ds);
  ASSERT_GE(seeds.size(), 3u);

  // --- Full-graph step. ---
  auto full_model = nn::MakeModel(kind, NoDropoutOptions(ds, 101));
  nn::ModelInputs full_in;
  full_in.graph = &ds.graph;
  full_in.features = nn::LayerInput::Sparse(ds.FeaturesCsr());
  full_model->ZeroGrad();
  tensor::Variable full_logits =
      full_model->Logits(full_in, /*training=*/true, nullptr);
  std::vector<int64_t> y;
  for (const int64_t s : seeds) y.push_back(ds.labels[static_cast<size_t>(s)]);
  tensor::Variable full_loss = tensor::ops::CrossEntropy(full_logits, seeds, y);
  full_loss.Backward();

  // --- Mini-batch step on the full-fanout induced block. ---
  SamplerOptions so;
  so.fanouts.assign(num_layers, ds.graph.MaxDegree());
  so.seed = 1;
  NeighborSampler sampler(&ds.graph, so);
  const graph::Subgraph block = sampler.SampleBlock(seeds);
  // The equivalence claim is only interesting on a proper subgraph.
  ASSERT_LT(block.num_nodes(), ds.num_nodes());

  auto mb_model = nn::MakeModel(kind, NoDropoutOptions(ds, 101));
  nn::ModelInputs mb_in;
  mb_in.graph = &block.graph;
  mb_in.features = nn::LayerInput::Sparse(
      std::make_shared<tensor::CsrMatrix>(block.LocalRows(*ds.FeaturesCsr())));
  mb_model->ZeroGrad();
  tensor::Variable mb_logits =
      mb_model->Logits(mb_in, /*training=*/true, nullptr);
  tensor::Variable mb_loss =
      tensor::ops::CrossEntropy(mb_logits, block.seed_local, y);
  mb_loss.Backward();

  EXPECT_EQ(full_loss.value().scalar(), mb_loss.value().scalar());
  const auto full_params = full_model->Parameters();
  const auto mb_params = mb_model->Parameters();
  ASSERT_EQ(full_params.size(), mb_params.size());
  for (size_t i = 0; i < full_params.size(); ++i) {
    ASSERT_TRUE(full_params[i].has_grad());
    ASSERT_TRUE(mb_params[i].has_grad());
    EXPECT_TRUE(
        AllClose(full_params[i].grad(), mb_params[i].grad(), 0.0f, 0.0f))
        << "parameter " << i << " gradients diverge";
  }
}

TEST(MiniBatchEquivalenceTest, SageFullFanoutMatchesFullGraphBitwise) {
  // Row-normalised aggregation: L sampling layers suffice.
  ExpectFullFanoutEquivalence(nn::BackboneKind::kSage, 2);
}

TEST(MiniBatchEquivalenceTest, GcnFullFanoutMatchesFullGraphBitwise) {
  // Symmetric normalisation needs exact boundary degrees: L+1 layers.
  ExpectFullFanoutEquivalence(nn::BackboneKind::kGcn, 3);
}

TEST(MiniBatchEquivalenceTest, TrainersProduceIdenticalWeightsAfterOneStep) {
  data::Dataset ds = MakeSparseDataset(12);
  const std::vector<int64_t> seeds = SeedNodes(ds);
  ASSERT_GE(seeds.size(), 3u);

  auto full_model = nn::MakeModel(nn::BackboneKind::kSage,
                                  NoDropoutOptions(ds, 7));
  nn::ClassifierTrainer::Options full_opts;
  full_opts.seed = 7;
  nn::ClassifierTrainer full(full_model.get(),
                             nn::LayerInput::Sparse(ds.FeaturesCsr()),
                             &ds.labels, full_opts);
  const nn::EvalResult full_step = full.TrainEpoch(ds.graph, seeds);

  auto mb_model = nn::MakeModel(nn::BackboneKind::kSage,
                                NoDropoutOptions(ds, 7));
  nn::MiniBatchTrainer::Options mb_opts;
  mb_opts.seed = 7;
  nn::MiniBatchTrainer mb(mb_model.get(), ds.FeaturesCsr(), &ds.labels,
                          mb_opts);
  SamplerOptions so;
  so.fanouts = {ds.graph.MaxDegree(), ds.graph.MaxDegree()};
  NeighborSampler sampler(&ds.graph, so);
  const nn::EvalResult mb_step = mb.TrainBatch(sampler.SampleBlock(seeds));

  EXPECT_EQ(full_step.loss, mb_step.loss);
  EXPECT_EQ(full_step.accuracy, mb_step.accuracy);
  const auto full_weights = full.SaveWeights();
  const auto mb_weights = mb.SaveWeights();
  ASSERT_EQ(full_weights.size(), mb_weights.size());
  for (size_t i = 0; i < full_weights.size(); ++i) {
    EXPECT_TRUE(AllClose(full_weights[i], mb_weights[i], 0.0f, 0.0f))
        << "post-Adam weights diverge at parameter " << i;
  }
}

TEST(MiniBatchTest, TrainBatchOnIsolatedSeedRuns) {
  data::Dataset ds = MakeSparseDataset(13);
  // Find an isolated node (the sparse generator leaves several).
  int64_t isolated = -1;
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    if (ds.graph.Degree(v) == 0) {
      isolated = v;
      break;
    }
  }
  ASSERT_GE(isolated, 0) << "generator produced no isolated node";

  auto model = nn::MakeModel(nn::BackboneKind::kSage,
                             NoDropoutOptions(ds, 3));
  nn::MiniBatchTrainer::Options opts;
  nn::MiniBatchTrainer trainer(model.get(), ds.FeaturesCsr(), &ds.labels,
                               opts);
  NeighborSampler sampler(&ds.graph, SamplerOptions{});
  const nn::EvalResult step =
      trainer.TrainBatch(sampler.SampleBlock({isolated}));
  EXPECT_TRUE(std::isfinite(step.loss));
}

TEST(MiniBatchTest, FitMiniBatchLearnsTheSyntheticTask) {
  data::GeneratorOptions o;
  o.num_nodes = 300;
  o.num_edges = 900;
  o.num_features = 64;
  o.num_classes = 3;
  o.homophily = 0.6;
  o.seed = 4;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 24;
  mo.num_classes = ds.num_classes;
  mo.seed = 5;
  auto model = nn::MakeModel(nn::BackboneKind::kSage, mo);
  nn::MiniBatchTrainer::Options to;
  to.seed = 5;
  nn::MiniBatchTrainer trainer(model.get(), ds.FeaturesCsr(), &ds.labels,
                               to);
  core::MiniBatchOptions mb;
  mb.sampler.fanouts = {8, 8};
  mb.sampler.seed = 9;
  mb.batch_size = 64;
  mb.max_epochs = 30;
  mb.patience = 30;
  const core::MiniBatchFitResult fit = core::FitMiniBatch(
      &trainer, ds.graph, splits[0].train, splits[0].val, mb, /*seed=*/5);

  EXPECT_EQ(fit.epochs_run, 30);
  EXPECT_GT(fit.batches_run, fit.epochs_run);
  EXPECT_GT(fit.best_val_accuracy, 0.7);
  const double test_acc =
      trainer.Evaluate(ds.graph, splits[0].test).accuracy;
  EXPECT_GT(test_acc, 0.7);
  // Training loss went down overall.
  EXPECT_LT(fit.train_loss_history.back(), fit.train_loss_history.front());
}

TEST(MiniBatchTest, SelectRowsSlicesFeatureRowsExactly) {
  data::Dataset ds = MakeSparseDataset(14);
  auto csr = ds.FeaturesCsr();
  const std::vector<int64_t> rows = {5, 0, 5, 159};
  const tensor::CsrMatrix sliced = csr->SelectRows(rows);
  EXPECT_EQ(sliced.rows(), 4);
  EXPECT_EQ(sliced.cols(), csr->cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int64_t c = 0; c < csr->cols(); ++c) {
      EXPECT_EQ(At(sliced, static_cast<int64_t>(i), c), At(*csr, rows[i], c));
    }
  }
}

}  // namespace
}  // namespace graphrare
