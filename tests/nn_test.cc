// nn module tests: module registry, linear, GNN layers, models, optimizers,
// metrics, trainer.

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "nn/trainer.h"
#include "tensor/ops.h"
#include "test_support.h"

namespace graphrare {
namespace nn {
namespace {

using testing_ref::AllClose;
using testing_ref::MaxAbs;
using testing_ref::HasNonFinite;

namespace ops = tensor::ops;
using tensor::Tensor;
using tensor::Variable;

graph::Graph TestGraph() {
  return graph::Graph::FromEdgeListOrDie(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}});
}

TEST(ModuleTest, ParameterRegistryCollectsChildren) {
  Rng rng(1);
  Linear outer(4, 3, &rng);
  EXPECT_EQ(outer.Parameters().size(), 2u);  // W + b
  EXPECT_EQ(outer.Parameters()[0].value().numel(), 4 * 3);
  EXPECT_EQ(outer.Parameters()[1].value().numel(), 3);
  const auto named = outer.NamedParameters();
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(2);
  Linear lin(3, 2, &rng);
  Variable x(Tensor::Full(4, 3, 1.0f), false);
  ops::SumAll(lin.Forward(x)).Backward();
  EXPECT_TRUE(lin.Parameters()[0].has_grad());
  EXPECT_GT(MaxAbs(lin.Parameters()[0].grad()), 0.0f);
  lin.ZeroGrad();
  EXPECT_EQ(MaxAbs(lin.Parameters()[0].grad()), 0.0f);
}

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(3);
  Linear lin(2, 2, &rng);
  Variable x(Tensor::FromData(1, 2, {1.0f, 2.0f}), false);
  const Tensor& w = lin.Parameters()[0].value();  // weight, then bias
  const Tensor& b = lin.Parameters()[1].value();
  Tensor y = lin.Forward(x).value();
  EXPECT_NEAR(y.at(0, 0), w.at(0, 0) + 2 * w.at(1, 0) + b.at(0, 0), 1e-5);
  EXPECT_NEAR(y.at(0, 1), w.at(0, 1) + 2 * w.at(1, 1) + b.at(0, 1), 1e-5);
}

TEST(LinearTest, SparseForwardMatchesDense) {
  Rng rng(4);
  Linear lin(5, 3, &rng);
  Tensor x = Tensor::Zeros(4, 5);
  x.at(0, 1) = 1.0f;
  x.at(2, 3) = 1.0f;
  x.at(3, 0) = 1.0f;
  std::vector<tensor::CooEntry> entries = {
      {0, 1, 1.0f}, {2, 3, 1.0f}, {3, 0, 1.0f}};
  auto csr = std::make_shared<tensor::CsrMatrix>(
      tensor::CsrMatrix::FromCoo(4, 5, entries));
  Variable dense_in(x, false);
  EXPECT_TRUE(
      AllClose(lin.ForwardSparse(csr).value(), lin.Forward(dense_in).value()));
}

TEST(LinearTest, SparseForwardGradMatchesDense) {
  Rng rng(5);
  Linear lin_a(3, 2, &rng);
  Rng rng2(5);
  Linear lin_b(3, 2, &rng2);
  Tensor x = Tensor::FromData(2, 3, {1, 0, 2, 0, 3, 0});
  auto csr = std::make_shared<tensor::CsrMatrix>(tensor::CsrMatrix::FromCoo(
      2, 3, {{0, 0, 1.0f}, {0, 2, 2.0f}, {1, 1, 3.0f}}));
  ops::SumAll(ops::Square(lin_a.Forward(Variable(x, false)))).Backward();
  ops::SumAll(ops::Square(lin_b.ForwardSparse(csr))).Backward();
  for (size_t i = 0; i < 2; ++i) {  // weight, bias
    EXPECT_TRUE(AllClose(lin_a.Parameters()[i].grad(),
                         lin_b.Parameters()[i].grad()));
  }
}

// ---- GNN layers -------------------------------------------------------------

TEST(GcnConvTest, UniformFeaturesStayUniform) {
  // On a regular graph with identical features, GCN output is identical
  // across nodes (eigenvector property of the normalised operator).
  graph::Graph ring =
      graph::Graph::FromEdgeListOrDie(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Rng rng(6);
  GCNConv conv(3, 2, &rng);
  Variable x(Tensor::Full(4, 3, 1.0f), false);
  Tensor y = conv.Forward(ring, LayerInput::Dense(x)).value();
  for (int64_t v = 1; v < 4; ++v) {
    for (int64_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(y.at(v, c), y.at(0, c), 1e-5);
    }
  }
}

TEST(GcnConvTest, GradFlowsToWeights) {
  graph::Graph g = TestGraph();
  Rng rng(7);
  GCNConv conv(4, 3, &rng);
  Rng xr(8);
  Variable x(Tensor::Randn(6, 4, &xr), false);
  ops::SumAll(ops::Square(conv.Forward(g, LayerInput::Dense(x)))).Backward();
  for (const auto& p : conv.Parameters()) {
    EXPECT_TRUE(p.has_grad());
  }
}

TEST(SageConvTest, SelfAndNeighborSeparated) {
  // A node with no neighbours only receives its self transform.
  graph::Graph g = graph::Graph::FromEdgeListOrDie(3, {{0, 1}});
  Rng rng(9);
  SAGEConv conv(2, 2, &rng);
  Rng xr(10);
  Tensor x = Tensor::Randn(3, 2, &xr);
  Tensor y = conv.Forward(g, LayerInput::Dense(Variable(x, false))).value();
  // Manual: node 2 isolated -> y = x W_self + b.
  Variable x2(Tensor::FromData(1, 2, {x.at(2, 0), x.at(2, 1)}), false);
  // Recompute through the same layer's self path by zeroing neighbours:
  // isolated row of row-normalised adjacency is zero, so this holds by
  // construction; verify aggregation contributed nothing.
  graph::Graph g_iso = graph::Graph::FromEdgeListOrDie(3, {});
  Tensor y_iso =
      conv.Forward(g_iso, LayerInput::Dense(Variable(x, false))).value();
  EXPECT_NEAR(y.at(2, 0), y_iso.at(2, 0), 1e-5);
  EXPECT_NEAR(y.at(2, 1), y_iso.at(2, 1), 1e-5);
}

TEST(GatConvTest, OutputShapeMultiHead) {
  graph::Graph g = TestGraph();
  Rng rng(11);
  GATConv conv(4, 3, /*num_heads=*/2, &rng);
  Rng xr(12);
  Variable x(Tensor::Randn(6, 4, &xr), false);
  Tensor y = conv.Forward(g, LayerInput::Dense(x), false, nullptr).value();
  EXPECT_EQ(y.rows(), 6);
  EXPECT_EQ(y.cols(), 6);  // 2 heads x 3
}

TEST(GatConvTest, AttentionIsConvexCombination) {
  // With one head and identical transformed features, each output row must
  // equal that shared feature row (attention weights sum to one).
  graph::Graph g = TestGraph();
  Rng rng(13);
  GATConv conv(3, 4, 1, &rng);
  Variable x(Tensor::Full(6, 3, 1.0f), false);
  Tensor y = conv.Forward(g, LayerInput::Dense(x), false, nullptr).value();
  for (int64_t v = 1; v < 6; ++v) {
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(y.at(v, c), y.at(0, c), 1e-4);
    }
  }
}

TEST(GatConvTest, GradFlowsThroughAttention) {
  graph::Graph g = TestGraph();
  Rng rng(14);
  GATConv conv(3, 2, 2, &rng);
  Rng xr(15);
  Variable x(Tensor::Randn(6, 3, &xr), false);
  ops::SumAll(
      ops::Square(conv.Forward(g, LayerInput::Dense(x), false, nullptr)))
      .Backward();
  for (const auto& p : conv.Parameters()) {
    EXPECT_TRUE(p.has_grad());
    EXPECT_GT(MaxAbs(p.grad()), 0.0f);
  }
}

TEST(MixHopConvTest, OutputWidthIsThreePowers) {
  graph::Graph g = TestGraph();
  Rng rng(16);
  MixHopConv conv(4, 5, &rng);
  EXPECT_EQ(conv.out_features(), 15);
  Rng xr(17);
  Variable x(Tensor::Randn(6, 4, &xr), false);
  EXPECT_EQ(conv.Forward(g, LayerInput::Dense(x)).value().cols(), 15);
}

TEST(H2GcnAggregateTest, WidthDoubles) {
  graph::Graph g = TestGraph();
  Rng xr(18);
  Variable h(Tensor::Randn(6, 4, &xr), false);
  Variable out = H2GCNAggregate(g, h);
  EXPECT_EQ(out.value().cols(), 8);
}

// ---- Models ------------------------------------------------------------------

ModelOptions SmallModelOptions() {
  ModelOptions mo;
  mo.in_features = 8;
  mo.hidden = 16;
  mo.num_classes = 3;
  mo.seed = 21;
  return mo;
}

TEST(ModelsTest, AllBackbonesProduceLogits) {
  graph::Graph g = TestGraph();
  Rng xr(19);
  Tensor x = Tensor::Rand(6, 8, &xr);
  for (BackboneKind kind :
       {BackboneKind::kMlp, BackboneKind::kGcn, BackboneKind::kSage,
        BackboneKind::kGat, BackboneKind::kMixHop, BackboneKind::kH2Gcn}) {
    auto model = MakeModel(kind, SmallModelOptions());
    EXPECT_EQ(model->kind(), kind);
    ModelInputs in;
    in.graph = &g;
    in.features = LayerInput::Dense(Variable(x, false));
    Rng dropout_rng(20);
    Tensor logits = model->Logits(in, true, &dropout_rng).value();
    EXPECT_EQ(logits.rows(), 6);
    EXPECT_EQ(logits.cols(), 3);
    EXPECT_FALSE(HasNonFinite(logits));
  }
}

TEST(ModelsTest, BackboneNamesRoundTrip) {
  for (BackboneKind kind :
       {BackboneKind::kMlp, BackboneKind::kGcn, BackboneKind::kSage,
        BackboneKind::kGat, BackboneKind::kMixHop, BackboneKind::kH2Gcn}) {
    EXPECT_EQ(*BackboneFromName(BackboneName(kind)), kind);
  }
  EXPECT_FALSE(BackboneFromName("resnet").ok());
  EXPECT_EQ(*BackboneFromName("graphsage"), BackboneKind::kSage);
}

TEST(ModelsTest, OptionsValidation) {
  ModelOptions mo = SmallModelOptions();
  mo.num_classes = 1;
  EXPECT_FALSE(mo.Validate().ok());
  mo = SmallModelOptions();
  mo.dropout = 1.0f;
  EXPECT_FALSE(mo.Validate().ok());
  mo = SmallModelOptions();
  mo.in_features = 0;
  EXPECT_FALSE(mo.Validate().ok());
}

TEST(ModelsTest, DeterministicInitForSeed) {
  auto a = MakeModel(BackboneKind::kGcn, SmallModelOptions());
  auto b = MakeModel(BackboneKind::kGcn, SmallModelOptions());
  auto pa = a->Parameters();
  auto pb = b->Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(AllClose(pa[i].value(), pb[i].value()));
  }
}

// ---- Optimizers ----------------------------------------------------------------

TEST(AdamTest, ReducesQuadraticLoss) {
  Variable w(Tensor::Full(1, 1, 5.0f), true);
  Adam::Options opts;
  opts.lr = 0.2f;
  opts.weight_decay = 0.0f;
  Adam adam({w}, opts);
  for (int i = 0; i < 100; ++i) {
    w.ZeroGrad();
    ops::Square(w).Backward();
    adam.Step();
  }
  EXPECT_NEAR(w.value().scalar(), 0.0f, 0.05f);
}

TEST(AdamTest, SkipsParamsWithoutGrad) {
  Variable a(Tensor::Scalar(1.0f), true);
  Variable b(Tensor::Scalar(2.0f), true);
  Adam adam({a, b}, {});
  ops::Square(a).Backward();  // only a gets a gradient
  adam.Step();
  EXPECT_EQ(b.value().scalar(), 2.0f);
  EXPECT_NE(a.value().scalar(), 1.0f);
}

TEST(AdamTest, WeightDecayPullsTowardZero) {
  Variable w(Tensor::Scalar(1.0f), true);
  Adam::Options opts;
  opts.lr = 0.01f;
  opts.weight_decay = 1.0f;
  Adam adam({w}, opts);
  // Gradient-free loss: only decay acts. Use a zero-grad surrogate.
  for (int i = 0; i < 50; ++i) {
    w.ZeroGrad();
    ops::Scale(w, 0.0f).Backward();  // zero gradient, but allocates grads
    adam.Step();
  }
  EXPECT_LT(w.value().scalar(), 1.0f);
}

// ---- Metrics --------------------------------------------------------------------

TEST(MetricsTest, AccuracyOnSubset) {
  Tensor logits = Tensor::FromData(4, 2,
                                   {2, 1,    // pred 0
                                    0, 3,    // pred 1
                                    5, 1,    // pred 0
                                    1, 2});  // pred 1
  std::vector<int64_t> labels = {0, 1, 1, 1};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1, 2, 3}), 0.75);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {2}), 0.0);
}

TEST(MetricsTest, AucPerfectSeparation) {
  Tensor logits = Tensor::FromData(4, 2,
                                   {5, 0,   //
                                    4, 1,   //
                                    0, 5,   //
                                    1, 4});
  std::vector<int64_t> labels = {0, 0, 1, 1};
  EXPECT_NEAR(MacroAucOvr(logits, labels, {0, 1, 2, 3}, 2), 1.0, 1e-9);
}

TEST(MetricsTest, AucRandomScoresNearHalf) {
  Rng rng(22);
  Tensor logits = Tensor::Randn(400, 2, &rng);
  std::vector<int64_t> labels;
  std::vector<int64_t> index;
  for (int64_t i = 0; i < 400; ++i) {
    labels.push_back(i % 2);
    index.push_back(i);
  }
  EXPECT_NEAR(MacroAucOvr(logits, labels, index, 2), 0.5, 0.08);
}

TEST(MetricsTest, AucHandlesMissingClass) {
  Tensor logits = Tensor::FromData(2, 3, {1, 0, 0, 0, 1, 0});
  std::vector<int64_t> labels = {0, 1};
  // Class 2 absent -> skipped; still well-defined.
  const double auc = MacroAucOvr(logits, labels, {0, 1}, 3);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);
}

TEST(MetricsTest, AucTiesUseMidrank) {
  Tensor logits = Tensor::FromData(4, 2, {1, 0, 1, 0, 1, 0, 1, 0});
  std::vector<int64_t> labels = {0, 0, 1, 1};
  EXPECT_NEAR(MacroAucOvr(logits, labels, {0, 1, 2, 3}, 2), 0.5, 1e-9);
}

// ---- Trainer --------------------------------------------------------------------

TEST(TrainerTest, FitImprovesOverInit) {
  graph::Graph g = TestGraph();
  Rng xr(23);
  Tensor x = Tensor::Rand(6, 8, &xr);
  std::vector<int64_t> labels = {0, 0, 1, 1, 2, 2};
  auto model = MakeModel(BackboneKind::kMlp, SmallModelOptions());
  ClassifierTrainer::Options to;
  to.adam.lr = 0.05f;
  ClassifierTrainer trainer(model.get(),
                            LayerInput::Dense(Variable(x, false)), &labels,
                            to);
  const std::vector<int64_t> all = {0, 1, 2, 3, 4, 5};
  const EvalResult before = trainer.Evaluate(g, all);
  trainer.Fit(g, all, all, 80, 80);
  const EvalResult after = trainer.Evaluate(g, all);
  EXPECT_LT(after.loss, before.loss);
  EXPECT_GE(after.accuracy, before.accuracy);
}

/// Eval-mode logits through the multi-set Evaluate with no index set.
Tensor EvalLogits(ClassifierTrainer* trainer, const graph::Graph& g) {
  Tensor logits;
  trainer->Evaluate(g, {}, &logits);
  return logits;
}

TEST(TrainerTest, MultiSetEvaluateMatchesSeparateCalls) {
  graph::Graph g = TestGraph();
  Rng xr(25);
  Tensor x = Tensor::Rand(6, 8, &xr);
  std::vector<int64_t> labels = {0, 1, 2, 0, 1, 2};
  auto model = MakeModel(BackboneKind::kGcn, SmallModelOptions());
  ClassifierTrainer trainer(model.get(),
                            LayerInput::Dense(Variable(x, false)), &labels,
                            {});
  trainer.TrainEpoch(g, {0, 1, 2, 3});
  const std::vector<int64_t> a = {0, 2, 4};
  const std::vector<int64_t> b = {5, 1};
  Tensor logits;
  const std::vector<EvalResult> both = trainer.Evaluate(g, {&a, &b}, &logits);
  ASSERT_EQ(both.size(), 2u);
  const EvalResult ea = trainer.Evaluate(g, a);
  const EvalResult eb = trainer.Evaluate(g, b);
  EXPECT_EQ(both[0].loss, ea.loss);
  EXPECT_EQ(both[0].accuracy, ea.accuracy);
  EXPECT_EQ(both[1].loss, eb.loss);
  EXPECT_EQ(both[1].accuracy, eb.accuracy);
  EXPECT_TRUE(AllClose(logits, EvalLogits(&trainer, g), 0.0f, 0.0f));
}

TEST(TrainerTest, SaveLoadWeightsRoundTrip) {
  graph::Graph g = TestGraph();
  Rng xr(24);
  Tensor x = Tensor::Rand(6, 8, &xr);
  std::vector<int64_t> labels = {0, 1, 2, 0, 1, 2};
  auto model = MakeModel(BackboneKind::kGcn, SmallModelOptions());
  ClassifierTrainer trainer(model.get(),
                            LayerInput::Dense(Variable(x, false)), &labels,
                            {});
  const auto saved = trainer.SaveWeights();
  const Tensor logits_before = EvalLogits(&trainer, g);
  trainer.TrainEpoch(g, {0, 1, 2, 3});
  EXPECT_FALSE(AllClose(EvalLogits(&trainer, g), logits_before));
  trainer.LoadWeights(saved);
  EXPECT_TRUE(AllClose(EvalLogits(&trainer, g), logits_before));
}

TEST(TrainerTest, EarlyStoppingStopsBeforeMaxEpochs) {
  graph::Graph g = TestGraph();
  Rng xr(25);
  Tensor x = Tensor::Rand(6, 8, &xr);
  // Random labels on val: no generalisation signal -> early stop.
  std::vector<int64_t> labels = {0, 1, 2, 0, 1, 2};
  auto model = MakeModel(BackboneKind::kMlp, SmallModelOptions());
  ClassifierTrainer trainer(model.get(),
                            LayerInput::Dense(Variable(x, false)), &labels,
                            {});
  const FitResult fit = trainer.Fit(g, {0, 1, 2}, {3, 4, 5}, 500, 5);
  EXPECT_LT(fit.epochs_run, 500);
  EXPECT_EQ(fit.train_acc_history.size(),
            static_cast<size_t>(fit.epochs_run));
}

}  // namespace
}  // namespace nn
}  // namespace graphrare
