// Property-based tests (parameterized sweeps) over the library's core
// invariants: graph canonicalisation, entropy bounds and symmetry, topology
// optimization conservation laws, generator statistics, autograd linearity.

#include <gtest/gtest.h>

#include "core/graphrare.h"
#include "test_support.h"

namespace graphrare {
namespace {

using testing_ref::AllClose;
using testing_ref::At;
namespace ref = testing_ref;

// ===== Generator invariants over a (homophily x size) grid ==================

struct GenCase {
  int64_t nodes;
  int64_t edges;
  double homophily;
  uint64_t seed;
};

class GeneratorPropertyTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorPropertyTest, PlantedStatisticsHold) {
  const GenCase& c = GetParam();
  data::GeneratorOptions o;
  o.num_nodes = c.nodes;
  o.num_edges = c.edges;
  o.num_features = 48;
  o.num_classes = 4;
  o.homophily = c.homophily;
  o.seed = c.seed;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();

  EXPECT_EQ(ds.num_nodes(), c.nodes);
  EXPECT_EQ(ds.graph.num_edges(), c.edges);
  EXPECT_NEAR(ds.Homophily(), c.homophily, 0.035);
  // Simple graph: no self loops, no duplicate edges (FromEdgeList enforces,
  // but verify via the CSR too).
  auto adj = ds.graph.Adjacency();
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    EXPECT_EQ(At(*adj, v, v), 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    HomophilyGrid, GeneratorPropertyTest,
    ::testing::Values(GenCase{150, 400, 0.05, 1}, GenCase{150, 400, 0.2, 2},
                      GenCase{150, 400, 0.5, 3}, GenCase{150, 400, 0.9, 4},
                      GenCase{400, 1200, 0.1, 5}, GenCase{400, 1200, 0.8, 6},
                      GenCase{80, 150, 0.3, 7}, GenCase{600, 3000, 0.22, 8}));

// ===== Entropy invariants across graph families =============================

class EntropyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EntropyPropertyTest, StructuralEntropySymmetricAndBounded) {
  Rng rng(GetParam());
  // Random graph.
  const int64_t n = 40;
  std::vector<graph::Edge> edges;
  for (int64_t v = 0; v < n; ++v) {
    for (int64_t u = v + 1; u < n; ++u) {
      if (rng.Bernoulli(0.08)) edges.emplace_back(v, u);
    }
  }
  graph::Graph g = graph::Graph::FromEdgeListOrDie(n, edges);
  entropy::StructuralEntropyCalculator calc(g);
  for (int64_t v = 0; v < n; v += 3) {
    for (int64_t u = 0; u < n; u += 5) {
      const double h = calc.Between(v, u);
      EXPECT_GE(h, 0.0);
      EXPECT_LE(h, 1.0);
      EXPECT_NEAR(h, calc.Between(u, v), 1e-12);
    }
    EXPECT_NEAR(calc.Between(v, v), 1.0, 1e-9);
  }
}

TEST_P(EntropyPropertyTest, FeatureEntropyRankingMatchesSimilarity) {
  Rng rng(GetParam() * 13 + 1);
  tensor::Tensor x = tensor::Tensor::Rand(30, 24, &rng);
  entropy::FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  tensor::Tensor z = entropy::EmbedFeatures(x, opts);
  std::vector<entropy::NodePair> pairs;
  for (int64_t v = 0; v < 30; ++v) {
    for (int64_t u = v + 1; u < 30; ++u) pairs.push_back({v, u});
  }
  const auto h = entropy::FeatureEntropyForPairs(z, pairs);
  // -P log P must preserve the similarity (dot product) order: whenever
  // dot(a) < dot(b), entropy(a) <= entropy(b).
  for (size_t i = 1; i < pairs.size(); i += 17) {
    const double da =
        entropy::EmbeddingDot(z, pairs[i - 1].first, pairs[i - 1].second);
    const double db = entropy::EmbeddingDot(z, pairs[i].first, pairs[i].second);
    if (da < db) {
      EXPECT_LE(h[i - 1], h[i] + 1e-12);
    } else if (db < da) {
      EXPECT_LE(h[i], h[i - 1] + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntropyPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ===== Topology optimization conservation laws ==============================

struct TopoCase {
  int k;
  int d;
  uint64_t seed;
};

class TopologyPropertyTest : public ::testing::TestWithParam<TopoCase> {};

TEST_P(TopologyPropertyTest, EdgeCountBoundsRespected) {
  const TopoCase& c = GetParam();
  data::GeneratorOptions o;
  o.num_nodes = 80;
  o.num_edges = 200;
  o.num_features = 32;
  o.num_classes = 4;
  o.homophily = 0.25;
  o.seed = c.seed;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  auto index =
      std::move(*entropy::RelativeEntropyIndex::Build(ds.graph, ds.features, {}));

  core::TopologyState state(ds.num_nodes(), 10, 10);
  state.SetUniform(c.k, c.d);
  graph::Graph g = core::BuildOptimizedGraph(ds.graph, state, index);

  // Additions bounded by sum(k); removals bounded by sum(d).
  EXPECT_LE(g.num_edges(), ds.graph.num_edges() + ds.num_nodes() * c.k);
  EXPECT_GE(g.num_edges(), ds.graph.num_edges() - ds.num_nodes() * c.d);
  // Rebuild is deterministic.
  graph::Graph g2 = core::BuildOptimizedGraph(ds.graph, state, index);
  EXPECT_EQ(g.edges(), g2.edges());
  // All added edges come from remote sequences -> never previously present
  // and never self loops (Graph invariants re-checked by construction).
  EXPECT_EQ(g.num_nodes(), ds.num_nodes());
}

TEST_P(TopologyPropertyTest, AddOnlyMonotoneRemoveOnlyAntitone) {
  const TopoCase& c = GetParam();
  data::GeneratorOptions o;
  o.num_nodes = 60;
  o.num_edges = 150;
  o.num_features = 32;
  o.num_classes = 3;
  o.homophily = 0.3;
  o.seed = c.seed + 100;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  auto index =
      std::move(*entropy::RelativeEntropyIndex::Build(ds.graph, ds.features, {}));

  core::TopologyState state(ds.num_nodes(), 10, 10);
  state.SetUniform(c.k, c.d);

  core::TopologyOptimizerOptions add_only;
  add_only.enable_remove = false;
  EXPECT_GE(core::BuildOptimizedGraph(ds.graph, state, index, add_only)
                .num_edges(),
            ds.graph.num_edges());

  core::TopologyOptimizerOptions remove_only;
  remove_only.enable_add = false;
  EXPECT_LE(core::BuildOptimizedGraph(ds.graph, state, index, remove_only)
                .num_edges(),
            ds.graph.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    KdGrid, TopologyPropertyTest,
    ::testing::Values(TopoCase{0, 0, 1}, TopoCase{1, 0, 2}, TopoCase{0, 1, 3},
                      TopoCase{2, 2, 4}, TopoCase{5, 1, 5}, TopoCase{1, 5, 6},
                      TopoCase{10, 10, 7}));

// ===== Homophily-raising property of entropy-guided addition ================

class HomophilyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HomophilyPropertyTest, EntropyGuidedAdditionsRaiseHomophily) {
  // On separable-feature graphs, adding top-entropy remote edges must raise
  // edge homophily relative to the original graph (the mechanism behind
  // Fig. 7 of the paper).
  data::GeneratorOptions o;
  o.num_nodes = 100;
  o.num_edges = 250;
  o.num_features = 64;
  o.num_classes = 4;
  o.homophily = 0.2;
  o.feature_signal = 12.0;
  o.feature_density = 0.12;
  o.seed = GetParam();
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  auto index =
      std::move(*entropy::RelativeEntropyIndex::Build(ds.graph, ds.features, {}));

  core::TopologyState state(ds.num_nodes(), 3, 0);
  state.SetUniform(3, 0);
  graph::Graph g = core::BuildOptimizedGraph(ds.graph, state, index);
  EXPECT_GT(g.EdgeHomophily(ds.labels), ds.Homophily() + 0.05)
      << "entropy-guided additions failed to raise homophily";
}

INSTANTIATE_TEST_SUITE_P(Seeds, HomophilyPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// ===== Autograd linearity / composition properties ==========================

class AutogradPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AutogradPropertyTest, GradientOfSumIsSumOfGradients) {
  Rng rng(GetParam());
  tensor::Tensor x0 = tensor::Tensor::Randn(4, 3, &rng);

  auto grad_of = [&](float c1, float c2) {
    tensor::Variable x(x0, true);
    tensor::ops::Add(tensor::ops::Scale(tensor::ops::SumAll(ref::Square(x)), c1),
                     tensor::ops::Scale(tensor::ops::SumAll(ref::Tanh(x)), c2))
        .Backward();
    return x.grad();
  };

  tensor::Tensor g_both = grad_of(0.7f, 1.3f);
  tensor::Tensor g_a = grad_of(0.7f, 0.0f);
  tensor::Tensor g_b = grad_of(0.0f, 1.3f);
  g_a.AddInPlace(g_b);
  EXPECT_TRUE(AllClose(g_both, g_a, 1e-4f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ===== GCN permutation equivariance ==========================================

TEST(GnnPropertyTest, GcnPermutationEquivariant) {
  // Relabelling nodes and permuting features permutes the logits.
  Rng rng(9);
  const int64_t n = 8;
  graph::Graph g = graph::Graph::FromEdgeListOrDie(
      n, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0},
          {0, 4}});
  tensor::Tensor x = tensor::Tensor::Rand(n, 6, &rng);

  // Permutation: reverse order.
  std::vector<int64_t> perm(n);
  for (int64_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = n - 1 - i;

  std::vector<graph::Edge> permuted_edges;
  for (const auto& [u, v] : g.edges()) {
    permuted_edges.emplace_back(perm[static_cast<size_t>(u)],
                                perm[static_cast<size_t>(v)]);
  }
  graph::Graph pg = graph::Graph::FromEdgeListOrDie(n, permuted_edges);
  tensor::Tensor px(n, 6);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t c = 0; c < 6; ++c) {
      px.at(perm[static_cast<size_t>(i)], c) = x.at(i, c);
    }
  }

  nn::ModelOptions mo;
  mo.in_features = 6;
  mo.hidden = 12;
  mo.num_classes = 3;
  mo.dropout = 0.0f;
  mo.seed = 17;
  auto model = nn::MakeModel(nn::BackboneKind::kGcn, mo);

  nn::ModelInputs in1;
  in1.graph = &g;
  in1.features = nn::LayerInput::Dense(tensor::Variable(x, false));
  tensor::Tensor y1 = model->Logits(in1, false, nullptr).value();

  nn::ModelInputs in2;
  in2.graph = &pg;
  in2.features = nn::LayerInput::Dense(tensor::Variable(px, false));
  tensor::Tensor y2 = model->Logits(in2, false, nullptr).value();

  for (int64_t i = 0; i < n; ++i) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(y1.at(i, c), y2.at(perm[static_cast<size_t>(i)], c), 1e-4);
    }
  }
}

}  // namespace
}  // namespace graphrare
