// Entropy module tests: JS divergence properties, structural entropy
// (Eqs. 5-8), feature entropy (Eq. 4), relative entropy index (Eq. 9) and
// sequence construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "data/registry.h"
#include "entropy/relative_entropy.h"
#include "entropy_reference.h"
#include "test_support.h"

namespace graphrare {
namespace entropy {
namespace {

using testing_ref::AllClose;

using testing_ref::JsDivergence;

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

TEST(JsDivergenceTest, IdenticalDistributionsGiveZero) {
  std::vector<float> p = {0.5f, 0.3f, 0.2f};
  EXPECT_NEAR(JsDivergence(p, p), 0.0, 1e-9);
}

TEST(JsDivergenceTest, DisjointSupportGivesOne) {
  std::vector<float> p = {1.0f, 0.0f};
  std::vector<float> q = {0.0f, 1.0f};
  EXPECT_NEAR(JsDivergence(p, q), 1.0, 1e-9);
}

TEST(JsDivergenceTest, Symmetric) {
  std::vector<float> p = {0.7f, 0.2f, 0.1f};
  std::vector<float> q = {0.1f, 0.6f, 0.3f};
  EXPECT_NEAR(JsDivergence(p, q), JsDivergence(q, p), 1e-12);
}

TEST(JsDivergenceTest, BoundedInUnitInterval) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> p(6), q(6);
    float sp = 0, sq = 0;
    for (int i = 0; i < 6; ++i) {
      p[i] = static_cast<float>(rng.Uniform());
      q[i] = static_cast<float>(rng.Uniform());
      sp += p[i];
      sq += q[i];
    }
    for (int i = 0; i < 6; ++i) {
      p[i] /= sp;
      q[i] /= sq;
    }
    const double js = JsDivergence(p, q);
    EXPECT_GE(js, 0.0);
    EXPECT_LE(js, 1.0);
  }
}

TEST(JsDivergenceTest, DifferentLengthsZeroPadded) {
  std::vector<float> p = {0.5f, 0.5f};
  std::vector<float> q = {0.5f, 0.25f, 0.25f};
  const double js = JsDivergence(p, q);
  EXPECT_GT(js, 0.0);
  EXPECT_LT(js, 1.0);
}

// ---- Structural entropy -----------------------------------------------------

TEST(StructuralEntropyTest, IdenticalLocalStructureGivesOne) {
  // 4-cycle: every node has the same degree profile.
  graph::Graph g =
      graph::Graph::FromEdgeListOrDie(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  StructuralEntropyCalculator calc(g);
  EXPECT_NEAR(calc.Between(0, 2), 1.0, 1e-9);
  EXPECT_NEAR(calc.Between(1, 3), 1.0, 1e-9);
}

TEST(StructuralEntropyTest, HubVsLeafIsLow) {
  // Star: node 0 is the hub of 5 leaves; compare hub vs leaf profiles.
  graph::Graph g = graph::Graph::FromEdgeListOrDie(
      6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  StructuralEntropyCalculator calc(g);
  const double hub_leaf = calc.Between(0, 1);
  const double leaf_leaf = calc.Between(1, 2);
  EXPECT_GT(leaf_leaf, hub_leaf);
  EXPECT_NEAR(leaf_leaf, 1.0, 1e-9);
}

TEST(StructuralEntropyTest, Symmetric) {
  graph::Graph g = graph::Graph::FromEdgeListOrDie(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}});
  StructuralEntropyCalculator calc(g);
  for (int64_t v = 0; v < 5; ++v) {
    for (int64_t u = 0; u < 5; ++u) {
      EXPECT_NEAR(calc.Between(v, u), calc.Between(u, v), 1e-12);
    }
  }
}

TEST(StructuralEntropyTest, SequencesNormalised) {
  graph::Graph g = graph::Graph::FromEdgeListOrDie(4, {{0, 1}, {0, 2}, {2, 3}});
  StructuralEntropyCalculator calc(g);
  for (int64_t v = 0; v < 4; ++v) {
    const auto& seq = calc.Sequence(v);
    double sum = 0.0;
    for (float x : seq) sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-6);
    // Descending.
    for (size_t i = 1; i < seq.size(); ++i) EXPECT_LE(seq[i], seq[i - 1]);
  }
}

TEST(StructuralEntropyTest, IsolatedNodeHandled) {
  graph::Graph g = graph::Graph::FromEdgeListOrDie(3, {{0, 1}});
  StructuralEntropyCalculator calc(g);
  const double h = calc.Between(2, 0);
  EXPECT_GE(h, 0.0);
  EXPECT_LE(h, 1.0);
}

// Between answers from per-node cached terms; JsDivergence recomputes
// everything per pair. They must agree to the bit on every ordered pair.
void ExpectBetweenBitwiseJs(const graph::Graph& g) {
  StructuralEntropyCalculator calc(g);
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    for (int64_t u = 0; u < g.num_nodes(); ++u) {
      const double want =
          1.0 - JsDivergence(calc.Sequence(v), calc.Sequence(u));
      ASSERT_EQ(Bits(calc.Between(v, u)), Bits(want))
          << "v=" << v << " u=" << u << " got " << calc.Between(v, u)
          << " want " << want;
    }
  }
}

TEST(StructuralEntropyTest, BetweenBitwiseEqualsJsDivergenceOnHubHeavyGraph) {
  data::Dataset ds = *data::MakeDatasetScaled("chameleon", 4);
  ExpectBetweenBitwiseJs(ds.graph);
}

TEST(StructuralEntropyTest, BetweenBitwiseEqualsJsDivergenceWithIsolatedNode) {
  // A star, a path and isolated node 7: sequences of lengths 1 to 5.
  graph::Graph g = graph::Graph::FromEdgeListOrDie(
      8, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}, {5, 6}});
  ExpectBetweenBitwiseJs(g);
}

// ---- Feature entropy --------------------------------------------------------

TEST(FeatureEntropyTest, EmbeddingL2Normalised) {
  Rng rng(2);
  tensor::Tensor x = tensor::Tensor::Rand(10, 32, &rng);
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 8;
  tensor::Tensor z = EmbedFeatures(x, opts);
  EXPECT_EQ(z.cols(), 8);
  for (int64_t r = 0; r < z.rows(); ++r) {
    EXPECT_NEAR(EmbeddingDot(z, r, r), 1.0, 1e-5);
  }
}

TEST(FeatureEntropyTest, IdentityWhenProjectionDisabled) {
  Rng rng(3);
  tensor::Tensor x = tensor::Tensor::Rand(5, 6, &rng);
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  opts.l2_normalize = false;
  tensor::Tensor z = EmbedFeatures(x, opts);
  EXPECT_TRUE(AllClose(z, x));
}

TEST(FeatureEntropyTest, MoreSimilarPairsHaveHigherEntropy) {
  // Nodes 0 and 1 share features; 2 is orthogonal to both. With a realistic
  // (large) pair set every pair probability is << 1/e, where -P log P is
  // increasing, so the similar pair must rank above the dissimilar one
  // (the paper's Eq. 4 reading).
  Rng rng(99);
  tensor::Tensor x = tensor::Tensor::Rand(20, 4, &rng);
  // Overwrite the three probe nodes with controlled features.
  for (int64_t c = 0; c < 4; ++c) {
    x.at(0, c) = c < 2 ? 1.0f : 0.0f;
    x.at(1, c) = c < 2 ? 1.0f : 0.0f;
    x.at(2, c) = c < 2 ? 0.0f : 1.0f;
  }
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  tensor::Tensor z = EmbedFeatures(x, opts);
  std::vector<NodePair> pairs = {{0, 1}, {0, 2}};
  for (int64_t v = 3; v < 20; ++v) pairs.push_back({v, (v + 5) % 20});
  const auto h = FeatureEntropyForPairs(z, pairs);
  EXPECT_GT(h[0], h[1]);  // similar pair ranks above dissimilar pair
}

TEST(FeatureEntropyTest, TinyPairSetsAreOutsideMonotoneRegime) {
  // Documented boundary: with only two pairs the larger probability can
  // exceed 1/e, where -P log P decreases — rankings are only meaningful
  // for candidate sets of realistic size (the index always builds those).
  tensor::Tensor x = tensor::Tensor::FromData(3, 4,
                                              {1, 1, 0, 0,   //
                                               1, 1, 0, 0,   //
                                               0, 0, 1, 1});
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  tensor::Tensor z = EmbedFeatures(x, opts);
  const auto h = FeatureEntropyForPairs(z, {{0, 1}, {0, 2}});
  ASSERT_EQ(h.size(), 2u);
  EXPECT_LT(h[0], h[1]);  // inverted: P(0,1) = 0.73 > 1/e here
}

TEST(FeatureEntropyTest, EntropiesPositive) {
  Rng rng(4);
  tensor::Tensor x = tensor::Tensor::Rand(20, 16, &rng);
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  tensor::Tensor z = EmbedFeatures(x, opts);
  std::vector<NodePair> pairs;
  for (int64_t v = 0; v < 20; ++v) {
    for (int64_t u = v + 1; u < 20; ++u) pairs.push_back({v, u});
  }
  const auto h = FeatureEntropyForPairs(z, pairs);
  for (double e : h) EXPECT_GT(e, 0.0);
}

TEST(FeatureEntropyTest, EmptyPairsGiveEmpty) {
  tensor::Tensor z = tensor::Tensor::Full(3, 3, 1.0f);
  EXPECT_TRUE(FeatureEntropyForPairs(z, {}).empty());
}

// ---- Relative entropy index -------------------------------------------------

data::Dataset TestDataset(uint64_t seed = 31) {
  data::GeneratorOptions o;
  o.num_nodes = 100;
  o.num_edges = 250;
  o.num_features = 60;
  o.num_classes = 4;
  o.homophily = 0.2;
  o.partner_affinity = 0.9;
  o.feature_signal = 10.0;
  o.feature_density = 0.1;
  o.seed = seed;
  return std::move(data::GenerateDataset(o)).value();
}

TEST(RelativeEntropyIndexTest, BuildsSequencesForEveryNode) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  EXPECT_EQ(index.num_nodes(), ds.num_nodes());
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    const NodeSequences& seq = index.sequences(v);
    EXPECT_EQ(static_cast<int64_t>(seq.neighbors.size()), ds.graph.Degree(v));
  }
}

TEST(RelativeEntropyIndexTest, RemoteSequencesDescending) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    const auto& remote = index.sequences(v).remote;
    for (size_t i = 1; i < remote.size(); ++i) {
      EXPECT_GE(remote[i - 1].entropy, remote[i].entropy);
    }
  }
}

TEST(RelativeEntropyIndexTest, NeighborSequencesAscending) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    const auto& nbrs = index.sequences(v).neighbors;
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LE(nbrs[i - 1].entropy, nbrs[i].entropy);
    }
  }
}

TEST(RelativeEntropyIndexTest, RemoteCandidatesAreNonAdjacent) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (const auto& s : index.sequences(v).remote) {
      EXPECT_FALSE(ds.graph.HasEdge(v, s.node));
      EXPECT_NE(s.node, v);
    }
  }
}

TEST(RelativeEntropyIndexTest, CandidateCapRespected) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.max_two_hop_candidates = 5;
  opts.num_random_candidates = 3;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    EXPECT_LE(index.sequences(v).remote.size(), 8u);
  }
}

TEST(RelativeEntropyIndexTest, LambdaZeroIgnoresStructure) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.lambda = 0.0;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  // All entropies must be within [0, 1] (rescaled feature entropy alone).
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (const auto& s : index.sequences(v).remote) {
      EXPECT_GE(s.entropy, 0.0);
      EXPECT_LE(s.entropy, 1.0);
    }
  }
}

TEST(RelativeEntropyIndexTest, EntropyBoundedByOnePlusLambda) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.lambda = 2.0;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (const auto& s : index.sequences(v).remote) {
      EXPECT_GE(s.entropy, 0.0);
      EXPECT_LE(s.entropy, 3.0 + 1e-9);
    }
  }
}

TEST(RelativeEntropyIndexTest, ShuffleKeepsMembership) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  std::vector<int64_t> before;
  for (const auto& s : index.sequences(0).remote) before.push_back(s.node);
  Rng rng(5);
  index.ShuffleSequences(&rng);
  std::vector<int64_t> after;
  for (const auto& s : index.sequences(0).remote) after.push_back(s.node);
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

TEST(RelativeEntropyIndexTest, ShuffleSequencesDeterministicForFixedRng) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  auto a = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  auto b = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  Rng rng_a(42), rng_b(42);
  a.ShuffleSequences(&rng_a);
  b.ShuffleSequences(&rng_b);
  for (int64_t v = 0; v < a.num_nodes(); ++v) {
    const NodeSequences& sa = a.sequences(v);
    const NodeSequences& sb = b.sequences(v);
    ASSERT_EQ(sa.remote.size(), sb.remote.size());
    for (size_t i = 0; i < sa.remote.size(); ++i) {
      EXPECT_EQ(sa.remote[i].node, sb.remote[i].node);
      EXPECT_EQ(sa.remote[i].entropy, sb.remote[i].entropy);
    }
    ASSERT_EQ(sa.neighbors.size(), sb.neighbors.size());
    for (size_t i = 0; i < sa.neighbors.size(); ++i) {
      EXPECT_EQ(sa.neighbors[i].node, sb.neighbors[i].node);
      EXPECT_EQ(sa.neighbors[i].entropy, sb.neighbors[i].entropy);
    }
  }
}

TEST(RelativeEntropyIndexTest, ShuffleSequencesIsPermutationOnly) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  const auto snapshot = [&] {
    std::vector<std::vector<std::pair<int64_t, double>>> all;
    for (int64_t v = 0; v < index.num_nodes(); ++v) {
      std::vector<std::pair<int64_t, double>> entries;
      for (const auto& s : index.sequences(v).remote) {
        entries.emplace_back(s.node, s.entropy);
      }
      for (const auto& s : index.sequences(v).neighbors) {
        entries.emplace_back(s.node, s.entropy);
      }
      std::sort(entries.begin(), entries.end());
      all.push_back(std::move(entries));
    }
    return all;
  };
  const auto before = snapshot();
  Rng rng(7);
  index.ShuffleSequences(&rng);
  // Shuffling permutes each sequence in place: the (node, entropy) multiset
  // per node is untouched — no entry gains, loses, or changes its score.
  EXPECT_EQ(snapshot(), before);
}

TEST(RelativeEntropyIndexTest, BuildsOnEmptyGraph) {
  const graph::Graph empty = graph::Graph::FromEdgeListOrDie(0, {});
  const tensor::Tensor features(0, 4);
  auto index = *RelativeEntropyIndex::Build(empty, features, {});
  EXPECT_EQ(index.num_nodes(), 0);
}

TEST(RelativeEntropyIndexTest, BuildsOnSingletonGraph) {
  const graph::Graph singleton = graph::Graph::FromEdgeListOrDie(1, {});
  const tensor::Tensor features(1, 4);
  auto index = *RelativeEntropyIndex::Build(singleton, features, {});
  EXPECT_EQ(index.num_nodes(), 1);
  // The only node has no 2-hop or remote candidates: remote stays empty.
  EXPECT_TRUE(index.sequences(0).remote.empty());
  EXPECT_TRUE(index.sequences(0).neighbors.empty());
}

TEST(RelativeEntropyIndexTest, ValidationErrors) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.lambda = -1.0;
  EXPECT_FALSE(RelativeEntropyIndex::Build(ds.graph, ds.features, opts).ok());
  opts = EntropyOptions();
  opts.max_two_hop_candidates = 0;
  opts.num_random_candidates = 0;
  EXPECT_FALSE(RelativeEntropyIndex::Build(ds.graph, ds.features, opts).ok());
  // Feature row mismatch.
  tensor::Tensor bad(ds.num_nodes() + 1, 4);
  EXPECT_FALSE(RelativeEntropyIndex::Build(ds.graph, bad, {}).ok());
}

// ---- Build against the reference copy ---------------------------------------

void ExpectMatchesReference(const data::Dataset& ds,
                            const EntropyOptions& opts) {
  const RelativeEntropyIndex index =
      *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  const std::vector<NodeSequences> ref =
      testing_ref::ReferenceEntropySequences(ds.graph, ds.features, opts);
  ASSERT_EQ(index.num_nodes(), static_cast<int64_t>(ref.size()));
  const auto expect_same = [](const std::vector<ScoredNode>& got,
                              const std::vector<ScoredNode>& want,
                              int64_t v, const char* which) {
    ASSERT_EQ(got.size(), want.size()) << which << " of node " << v;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].node, want[i].node) << which << " of node " << v;
      ASSERT_EQ(Bits(got[i].entropy), Bits(want[i].entropy))
          << which << " of node " << v << " at " << i;
    }
  };
  for (int64_t v = 0; v < index.num_nodes(); ++v) {
    const NodeSequences& want = ref[static_cast<size_t>(v)];
    expect_same(index.sequences(v).remote, want.remote, v, "remote");
    expect_same(index.sequences(v).neighbors, want.neighbors, v, "neighbors");
  }
}

// Largest distinct 2-hop candidate set of any node (excluding the node and
// its neighbours), i.e. what Build samples down to max_two_hop_candidates.
size_t MaxTwoHopCandidates(const graph::Graph& g) {
  size_t mx = 0;
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    std::unordered_set<int64_t> seen = {v};
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      seen.insert(*p);
    }
    const size_t excluded = seen.size();
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      seen.insert(g.NeighborsBegin(*p), g.NeighborsEnd(*p));
    }
    mx = std::max(mx, seen.size() - excluded);
  }
  return mx;
}

TEST(RelativeEntropyIndexTest, BuildMatchesReferenceWithTwoHopSampling) {
  data::Dataset ds = *data::MakeDatasetScaled("chameleon", 4);
  EntropyOptions opts;
  ASSERT_GT(MaxTwoHopCandidates(ds.graph),
            static_cast<size_t>(opts.max_two_hop_candidates))
      << "no node reaches the 2-hop cap, so sampling is not exercised";
  ExpectMatchesReference(ds, opts);

  opts.max_two_hop_candidates = 3;
  opts.lambda = 0.5;
  ExpectMatchesReference(ds, opts);
}

TEST(RelativeEntropyIndexTest, BuildMatchesReferenceWithRandomCandidatesOnly) {
  data::Dataset ds = *data::MakeDatasetScaled("chameleon", 4);
  EntropyOptions opts;
  opts.max_two_hop_candidates = 0;
  opts.num_random_candidates = 8;
  ExpectMatchesReference(ds, opts);
}

TEST(RelativeEntropyIndexTest, BuildMatchesReferenceWithRawFeatures) {
  // projection_dim = 0 keeps phi = identity, the path that copies features.
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.embedding.projection_dim = 0;
  ExpectMatchesReference(ds, opts);
}

TEST(DenseEntropyMatrixTest, SymmetricWithEmptyDiagonal) {
  data::Dataset ds = TestDataset();
  tensor::Tensor m = DenseRelativeEntropyMatrix(ds.graph, ds.features, {});
  EXPECT_EQ(m.rows(), ds.num_nodes());
  for (int64_t v = 0; v < 20; ++v) {
    EXPECT_EQ(m.at(v, v), 0.0f);
    for (int64_t u = 0; u < 20; ++u) {
      EXPECT_FLOAT_EQ(m.at(v, u), m.at(u, v));
    }
  }
}

TEST(DenseEntropyMatrixTest, SameLabelPairsHaveHigherEntropy) {
  // The paper's Fig. 8 claim: same-label blocks are brighter. Use a
  // strongly separable feature model so it holds robustly.
  data::GeneratorOptions o;
  o.num_nodes = 80;
  o.num_edges = 200;
  o.num_features = 80;
  o.num_classes = 4;
  o.homophily = 0.25;
  o.feature_signal = 15.0;
  o.feature_density = 0.15;
  o.seed = 77;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  tensor::Tensor m = DenseRelativeEntropyMatrix(ds.graph, ds.features, {});
  double same = 0.0, cross = 0.0;
  int64_t n_same = 0, n_cross = 0;
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (int64_t u = v + 1; u < ds.num_nodes(); ++u) {
      if (ds.labels[v] == ds.labels[u]) {
        same += m.at(v, u);
        ++n_same;
      } else {
        cross += m.at(v, u);
        ++n_cross;
      }
    }
  }
  EXPECT_GT(same / n_same, cross / n_cross);
}

}  // namespace
}  // namespace entropy
}  // namespace graphrare
