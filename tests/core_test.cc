// Core framework tests: topology state/optimizer, observations, reward,
// option validation, rewiring baselines.

#include <gtest/gtest.h>

#include "core/graphrare.h"

namespace graphrare {
namespace core {
namespace {

data::Dataset TinyDataset(uint64_t seed = 41) {
  data::GeneratorOptions o;
  o.num_nodes = 60;
  o.num_edges = 140;
  o.num_features = 40;
  o.num_classes = 3;
  o.homophily = 0.2;
  o.feature_signal = 8.0;
  o.feature_density = 0.1;
  o.seed = seed;
  return std::move(data::GenerateDataset(o)).value();
}

entropy::RelativeEntropyIndex TinyIndex(const data::Dataset& ds) {
  return std::move(
      *entropy::RelativeEntropyIndex::Build(ds.graph, ds.features, {}));
}

// ---- TopologyState ----------------------------------------------------------

TEST(TopologyStateTest, StartsAtZero) {
  TopologyState s(5, 3, 2);
  for (int64_t v = 0; v < 5; ++v) {
    EXPECT_EQ(s.k(v), 0);
    EXPECT_EQ(s.d(v), 0);
  }
  EXPECT_EQ(s.TotalK(), 0);
}

TEST(TopologyStateTest, ApplyClampsToBounds) {
  TopologyState s(3, 2, 1);
  rl::ActionSample up;
  up.delta_k = {1, 1, 1};
  up.delta_d = {1, 1, 1};
  for (int i = 0; i < 5; ++i) s.Apply(up);
  for (int64_t v = 0; v < 3; ++v) {
    EXPECT_EQ(s.k(v), 2);
    EXPECT_EQ(s.d(v), 1);
  }
  rl::ActionSample down;
  down.delta_k = {-1, -1, -1};
  down.delta_d = {-1, -1, -1};
  for (int i = 0; i < 5; ++i) s.Apply(down);
  for (int64_t v = 0; v < 3; ++v) {
    EXPECT_EQ(s.k(v), 0);
    EXPECT_EQ(s.d(v), 0);
  }
}

TEST(TopologyStateTest, SetUniformAndRandom) {
  TopologyState s(10, 5, 5);
  s.SetUniform(3, 2);
  EXPECT_EQ(s.TotalK(), 30);
  EXPECT_EQ(s.TotalD(), 20);
  Rng rng(1);
  s.SetRandom(4, 4, &rng);
  for (int64_t v = 0; v < 10; ++v) {
    EXPECT_GE(s.k(v), 0);
    EXPECT_LE(s.k(v), 4);
  }
  s.Reset();
  EXPECT_EQ(s.TotalK(), 0);
}

// ---- Topology optimizer ------------------------------------------------------

TEST(TopologyOptimizerTest, ZeroStateReturnsOriginal) {
  data::Dataset ds = TinyDataset();
  auto index = TinyIndex(ds);
  TopologyState s(ds.num_nodes(), 3, 3);
  graph::Graph g = BuildOptimizedGraph(ds.graph, s, index);
  EXPECT_EQ(g.edges(), ds.graph.edges());
}

TEST(TopologyOptimizerTest, AddsTopKRemote) {
  data::Dataset ds = TinyDataset();
  auto index = TinyIndex(ds);
  TopologyState s(ds.num_nodes(), 3, 3);
  rl::ActionSample a;
  a.delta_k.assign(static_cast<size_t>(ds.num_nodes()), 0);
  a.delta_d.assign(static_cast<size_t>(ds.num_nodes()), 0);
  a.delta_k[0] = 1;  // node 0: k=1
  s.Apply(a);
  graph::Graph g = BuildOptimizedGraph(ds.graph, s, index);
  const auto& seq = index.sequences(0);
  ASSERT_FALSE(seq.remote.empty());
  EXPECT_TRUE(g.HasEdge(0, seq.remote[0].node));
  EXPECT_EQ(g.num_edges(), ds.graph.num_edges() + 1);
}

TEST(TopologyOptimizerTest, RemovesLowestEntropyNeighbors) {
  data::Dataset ds = TinyDataset();
  auto index = TinyIndex(ds);
  TopologyState s(ds.num_nodes(), 3, 3);
  // Find a node with degree >= 2.
  int64_t v = -1;
  for (int64_t i = 0; i < ds.num_nodes(); ++i) {
    if (ds.graph.Degree(i) >= 2) {
      v = i;
      break;
    }
  }
  ASSERT_GE(v, 0);
  rl::ActionSample a;
  a.delta_k.assign(static_cast<size_t>(ds.num_nodes()), 0);
  a.delta_d.assign(static_cast<size_t>(ds.num_nodes()), 0);
  a.delta_d[static_cast<size_t>(v)] = 1;
  s.Apply(a);
  graph::Graph g = BuildOptimizedGraph(ds.graph, s, index);
  const auto& seq = index.sequences(v);
  EXPECT_FALSE(g.HasEdge(v, seq.neighbors[0].node));
  EXPECT_EQ(g.num_edges(), ds.graph.num_edges() - 1);
}

TEST(TopologyOptimizerTest, DisabledChannelsRespected) {
  data::Dataset ds = TinyDataset();
  auto index = TinyIndex(ds);
  TopologyState s(ds.num_nodes(), 3, 3);
  s.SetUniform(2, 2);
  TopologyOptimizerOptions no_add;
  no_add.enable_add = false;
  graph::Graph g1 = BuildOptimizedGraph(ds.graph, s, index, no_add);
  EXPECT_LE(g1.num_edges(), ds.graph.num_edges());
  TopologyOptimizerOptions no_remove;
  no_remove.enable_remove = false;
  graph::Graph g2 = BuildOptimizedGraph(ds.graph, s, index, no_remove);
  EXPECT_GE(g2.num_edges(), ds.graph.num_edges());
}

TEST(TopologyOptimizerTest, StateExceedingSequencesIsSafe) {
  data::Dataset ds = TinyDataset();
  auto index = TinyIndex(ds);
  TopologyState s(ds.num_nodes(), 1000, 1000);
  s.SetUniform(1000, 1000);  // way beyond any sequence length
  graph::Graph g = BuildOptimizedGraph(ds.graph, s, index);
  EXPECT_EQ(g.num_nodes(), ds.num_nodes());
}

// ---- Observation ---------------------------------------------------------------

TEST(ObservationTest, ShapeAndRanges) {
  data::Dataset ds = TinyDataset();
  auto index = TinyIndex(ds);
  TopologyState s(ds.num_nodes(), 4, 4);
  s.SetUniform(2, 1);
  tensor::Tensor obs =
      BuildObservation(ds.graph, ds.graph, s, index, /*last_reward=*/0.3);
  EXPECT_EQ(obs.rows(), ds.num_nodes());
  EXPECT_EQ(obs.cols(), kObservationDim);
  for (int64_t i = 0; i < obs.numel(); ++i) {
    EXPECT_GE(obs[i], -1.0f);
    EXPECT_LE(obs[i], 1.0f + 1e-5f);
  }
}

TEST(ObservationTest, RewardClipped) {
  data::Dataset ds = TinyDataset();
  auto index = TinyIndex(ds);
  TopologyState s(ds.num_nodes(), 4, 4);
  tensor::Tensor obs =
      BuildObservation(ds.graph, ds.graph, s, index, /*last_reward=*/42.0);
  EXPECT_FLOAT_EQ(obs.at(0, 7), 1.0f);
}

TEST(ObservationTest, TracksStateValues) {
  data::Dataset ds = TinyDataset();
  auto index = TinyIndex(ds);
  TopologyState s(ds.num_nodes(), 4, 2);
  s.SetUniform(4, 2);
  tensor::Tensor obs = BuildObservation(ds.graph, ds.graph, s, index, 0.0);
  EXPECT_FLOAT_EQ(obs.at(0, 1), 1.0f);  // k at max
  EXPECT_FLOAT_EQ(obs.at(0, 2), 1.0f);  // d at max
}

// ---- Reward --------------------------------------------------------------------

TEST(RewardTest, AccLossFormula) {
  RewardOptions opts;
  opts.lambda_r = 2.0;
  RewardInputs prev{0.5, 1.0, 0.0};
  RewardInputs curr{0.6, 0.8, 0.0};
  // (0.6-0.5) + 2*(1.0-0.8) = 0.1 + 0.4
  EXPECT_NEAR(ComputeReward(opts, prev, curr), 0.5, 1e-9);
}

TEST(RewardTest, AccLossNegativeWhenWorse) {
  RewardOptions opts;
  RewardInputs prev{0.7, 0.5, 0.0};
  RewardInputs curr{0.6, 0.9, 0.0};
  EXPECT_LT(ComputeReward(opts, prev, curr), 0.0);
}

TEST(RewardTest, AucVariant) {
  RewardOptions opts;
  opts.kind = RewardKind::kAuc;
  RewardInputs prev{0.0, 0.0, 0.6};
  RewardInputs curr{0.0, 0.0, 0.75};
  EXPECT_NEAR(ComputeReward(opts, prev, curr), 0.15, 1e-9);
}

// ---- Options validation ----------------------------------------------------------

TEST(GraphRareOptionsTest, DefaultsValid) {
  GraphRareOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(GraphRareOptionsTest, RejectsBadValues) {
  GraphRareOptions opts;
  opts.iterations = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = GraphRareOptions();
  opts.k_max = 0;
  opts.d_max = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = GraphRareOptions();
  opts.dropout = 1.0f;
  EXPECT_FALSE(opts.Validate().ok());
  opts = GraphRareOptions();
  opts.entropy.lambda = -0.1;
  EXPECT_FALSE(opts.Validate().ok());
}

// ---- Aggregation ------------------------------------------------------------------

TEST(AggregateTest, MeanAndSampleStd) {
  RunStats s = Aggregate({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_NEAR(s.stddev, 1.0, 1e-12);  // sample std of {1,2,3}
}

TEST(AggregateTest, SingleValueHasZeroStd) {
  RunStats s = Aggregate({5.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(AggregateTest, EmptyIsZero) {
  RunStats s = Aggregate({});
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

// ---- kNN / rewiring baselines -------------------------------------------------------

TEST(KnnGraphTest, DegreesAtLeastK) {
  data::Dataset ds = TinyDataset();
  KnnGraphOptions opts;
  opts.k = 3;
  graph::Graph knn = BuildKnnGraph(ds.features, opts);
  EXPECT_EQ(knn.num_nodes(), ds.num_nodes());
  // Each node contributed k out-edges; unions can only raise degree.
  for (int64_t v = 0; v < knn.num_nodes(); ++v) {
    EXPECT_GE(knn.Degree(v), 3);
  }
}

TEST(KnnGraphTest, ConnectsSimilarFeatureNodes) {
  // kNN on strongly separable features should be mostly intra-class,
  // i.e. homophily of the kNN graph exceeds the original graph's.
  data::Dataset ds = TinyDataset();
  KnnGraphOptions opts;
  opts.k = 3;
  graph::Graph knn = BuildKnnGraph(ds.features, opts);
  EXPECT_GT(knn.EdgeHomophily(ds.labels), ds.Homophily());
}

TEST(UgcnStarTest, UnionContainsOriginalEdges) {
  data::Dataset ds = TinyDataset();
  KnnGraphOptions opts;
  opts.k = 2;
  graph::Graph u = BuildUgcnStarGraph(ds, opts);
  for (const auto& [a, b] : ds.graph.edges()) {
    EXPECT_TRUE(u.HasEdge(a, b));
  }
}

// The mixing weight is sigmoid(theta); theta is the "theta" parameter.
float Theta(const SimpGcnStarModel& model) {
  for (const auto& [name, value] : model.StateDict()) {
    if (name == "theta") return value.scalar();
  }
  ADD_FAILURE() << "no theta parameter";
  return 0.0f;
}

TEST(SimpGcnStarTest, MixingWeightLearnable) {
  data::Dataset ds = TinyDataset();
  KnnGraphOptions kopts;
  kopts.k = 3;
  graph::Graph knn = BuildKnnGraph(ds.features, kopts);
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 16;
  mo.num_classes = ds.num_classes;
  mo.seed = 9;
  SimpGcnStarModel model(mo, knn.NormalizedAdjacency());
  EXPECT_EQ(Theta(model), 0.0f);  // sigmoid(0) = 0.5: an even blend

  // One training step must move theta.
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  nn::ClassifierTrainer trainer(&model,
                                nn::LayerInput::Sparse(ds.FeaturesCsr()),
                                &ds.labels, {});
  for (int i = 0; i < 5; ++i) trainer.TrainEpoch(ds.graph, splits[0].train);
  EXPECT_NE(Theta(model), 0.0f);
}

// ---- Bench helpers -------------------------------------------------------------------

TEST(BenchHelpersTest, QuickModeDefaults) {
  // Tests run without GRARE_BENCH_FULL; quick values returned.
  if (!BenchFullScale()) {
    EXPECT_EQ(BenchNumSplits(10, 2), 2);
  } else {
    EXPECT_EQ(BenchNumSplits(10, 2), 10);
  }
}

}  // namespace
}  // namespace core
}  // namespace graphrare
