// Neighbor sampler and induced-subgraph tests: seeded determinism, fanout
// caps, local<->global remap integrity, and empty-frontier / isolated-node
// edge cases.

#include "data/sampler.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "test_support.h"

namespace graphrare {
namespace {

using testing_ref::KHopNeighbors;

using data::NeighborSampler;
using data::SamplerOptions;
using graph::Graph;
using graph::Subgraph;

data::Dataset MakeDataset(uint64_t seed, int64_t nodes = 120,
                          int64_t edges = 320) {
  data::GeneratorOptions o;
  o.num_nodes = nodes;
  o.num_edges = edges;
  o.num_features = 32;
  o.num_classes = 3;
  o.homophily = 0.4;
  o.seed = seed;
  return std::move(data::GenerateDataset(o)).value();
}

/// Checks the remap invariants every block must satisfy.
void ExpectValidBlock(const Graph& g, const Subgraph& block,
                      const std::vector<int64_t>& seeds) {
  // Local->global map: strictly ascending, in range.
  ASSERT_FALSE(block.nodes.empty());
  for (size_t i = 0; i < block.nodes.size(); ++i) {
    EXPECT_GE(block.nodes[i], 0);
    EXPECT_LT(block.nodes[i], g.num_nodes());
    if (i > 0) {
      EXPECT_LT(block.nodes[i - 1], block.nodes[i]);
    }
  }
  // Seeds present, correctly mapped, no out-of-range or duplicate locals.
  ASSERT_EQ(block.seed_local.size(), seeds.size());
  ASSERT_EQ(block.seed_global.size(), seeds.size());
  std::set<int64_t> seen_local;
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(block.seed_global[i], seeds[i]);
    const int64_t local = block.seed_local[i];
    ASSERT_GE(local, 0);
    ASSERT_LT(local, block.num_nodes());
    EXPECT_EQ(block.nodes[static_cast<size_t>(local)], seeds[i]);
    EXPECT_TRUE(seen_local.insert(local).second)
        << "duplicate local seed index " << local;
  }
  // Round trip through GlobalToLocal.
  for (int64_t local = 0; local < block.num_nodes(); ++local) {
    EXPECT_EQ(block.GlobalToLocal(block.nodes[static_cast<size_t>(local)]),
              local);
  }
  // Every subgraph edge exists in the parent graph.
  for (const auto& [lu, lv] : block.graph.edges()) {
    EXPECT_TRUE(g.HasEdge(block.nodes[static_cast<size_t>(lu)],
                          block.nodes[static_cast<size_t>(lv)]));
  }
}

TEST(SamplerTest, DeterministicResamplingUnderFixedSeed) {
  data::Dataset ds = MakeDataset(3);
  SamplerOptions options;
  options.fanouts = {4, 3};
  options.seed = 42;
  NeighborSampler a(&ds.graph, options);
  NeighborSampler b(&ds.graph, options);
  const std::vector<int64_t> seeds = {1, 7, 20, 55};
  // Consecutive blocks advance the stream; matching call positions match.
  std::vector<int64_t> first_nodes;
  for (int call = 0; call < 4; ++call) {
    const Subgraph ba = a.SampleBlock(seeds);
    const Subgraph bb = b.SampleBlock(seeds);
    EXPECT_EQ(ba.nodes, bb.nodes) << "call " << call;
    EXPECT_EQ(ba.graph.edges(), bb.graph.edges()) << "call " << call;
    if (call == 0) first_nodes = ba.nodes;
  }
  // Position 0 of the stream replays the first block.
  EXPECT_EQ(a.SampleBlockAt(seeds, 0).nodes, first_nodes);
  EXPECT_EQ(b.SampleBlockAt(seeds, 0).nodes, first_nodes);
}

TEST(SamplerTest, ConsecutiveBlocksResampleDifferently) {
  data::Dataset ds = MakeDataset(4, 200, 900);
  SamplerOptions options;
  options.fanouts = {2};
  options.seed = 9;
  NeighborSampler sampler(&ds.graph, options);
  std::vector<int64_t> seeds;
  for (int64_t v = 0; v < 40; ++v) seeds.push_back(v);
  const Subgraph first = sampler.SampleBlock(seeds);
  bool any_diff = false;
  for (int call = 0; call < 5 && !any_diff; ++call) {
    any_diff = sampler.SampleBlock(seeds).nodes != first.nodes;
  }
  EXPECT_TRUE(any_diff) << "block counter does not advance the stream";
}

TEST(SamplerTest, SampleNeighborsRespectsFanoutCap) {
  data::Dataset ds = MakeDataset(5, 80, 400);
  Rng rng(17);
  for (int64_t v = 0; v < ds.graph.num_nodes(); ++v) {
    for (const int64_t fanout : {1, 3, 1000}) {
      const auto sampled = NeighborSampler::SampleNeighbors(
          ds.graph, v, fanout, /*replace=*/false, &rng);
      EXPECT_LE(static_cast<int64_t>(sampled.size()),
                std::min(fanout, ds.graph.Degree(v)));
      std::set<int64_t> unique(sampled.begin(), sampled.end());
      EXPECT_EQ(unique.size(), sampled.size()) << "duplicates without "
                                                  "replacement";
      for (const int64_t u : sampled) EXPECT_TRUE(ds.graph.HasEdge(v, u));
    }
  }
}

TEST(SamplerTest, SampleNeighborsWithReplacementDrawsExactlyFanout) {
  data::Dataset ds = MakeDataset(6);
  Rng rng(23);
  for (int64_t v = 0; v < ds.graph.num_nodes(); ++v) {
    if (ds.graph.Degree(v) == 0) continue;
    const auto sampled = NeighborSampler::SampleNeighbors(
        ds.graph, v, 6, /*replace=*/true, &rng);
    EXPECT_EQ(sampled.size(), 6u);
    for (const int64_t u : sampled) EXPECT_TRUE(ds.graph.HasEdge(v, u));
  }
}

TEST(SamplerTest, LayerGrowthBoundedByFanout) {
  data::Dataset ds = MakeDataset(7, 150, 700);
  SamplerOptions options;
  options.fanouts = {3, 2};
  options.seed = 5;
  NeighborSampler sampler(&ds.graph, options);
  const std::vector<int64_t> seeds = {0, 10, 30, 60, 90};
  const Subgraph block = sampler.SampleBlock(seeds);
  const auto& layers = sampler.layers();
  ASSERT_EQ(layers.size(), options.fanouts.size() + 1);
  EXPECT_EQ(layers[0], seeds);
  int64_t reachable = static_cast<int64_t>(seeds.size());
  for (size_t l = 0; l < options.fanouts.size(); ++l) {
    EXPECT_LE(static_cast<int64_t>(layers[l + 1].size()),
              static_cast<int64_t>(layers[l].size()) * options.fanouts[l]);
    reachable += static_cast<int64_t>(layers[l + 1].size());
  }
  EXPECT_EQ(block.num_nodes(), reachable);
  ExpectValidBlock(ds.graph, block, seeds);
}

TEST(SamplerTest, RemapHasNoOutOfRangeOrDuplicateLocals) {
  data::Dataset ds = MakeDataset(8, 200, 600);
  SamplerOptions options;
  options.fanouts = {5, 5};
  options.seed = 77;
  NeighborSampler sampler(&ds.graph, options);
  const std::vector<int64_t> seeds = {3, 4, 50, 120, 199};
  ExpectValidBlock(ds.graph, sampler.SampleBlock(seeds), seeds);
  // Nodes outside the block map to -1.
  const Subgraph block = sampler.SampleBlock(seeds);
  int64_t outside = 0;
  for (int64_t v = 0; v < ds.graph.num_nodes(); ++v) {
    if (!std::binary_search(block.nodes.begin(), block.nodes.end(), v)) {
      EXPECT_EQ(block.GlobalToLocal(v), -1);
      ++outside;
    }
  }
  EXPECT_GT(outside, 0) << "block swallowed the whole graph; remap "
                           "untested";
}

TEST(SamplerTest, IsolatedSeedYieldsSingletonBlock) {
  // Node 4 is isolated; nodes 0-3 form a path.
  Graph g = Graph::FromEdgeListOrDie(5, {{0, 1}, {1, 2}, {2, 3}});
  SamplerOptions options;
  options.fanouts = {4, 4};
  NeighborSampler sampler(&g, options);
  const Subgraph block = sampler.SampleBlock({4});
  EXPECT_EQ(block.num_nodes(), 1);
  EXPECT_EQ(block.graph.num_edges(), 0);
  EXPECT_EQ(block.seed_local[0], 0);
  ExpectValidBlock(g, block, {4});
}

TEST(SamplerTest, EmptyFrontierStopsExpansionGracefully) {
  // Component {0,1} exhausts after one hop; deeper layers must be empty,
  // not a crash.
  Graph g = Graph::FromEdgeListOrDie(6, {{0, 1}, {2, 3}, {3, 4}});
  SamplerOptions options;
  options.fanouts = {4, 4, 4, 4};
  NeighborSampler sampler(&g, options);
  const Subgraph block = sampler.SampleBlock({0});
  EXPECT_EQ(block.num_nodes(), 2);
  const auto& layers = sampler.layers();
  ASSERT_EQ(layers.size(), 5u);
  EXPECT_TRUE(layers[2].empty());
  EXPECT_TRUE(layers[3].empty());
  EXPECT_TRUE(layers[4].empty());
}

TEST(SamplerTest, FullFanoutCoversKHopClosure) {
  data::Dataset ds = MakeDataset(9, 100, 250);
  SamplerOptions options;
  options.fanouts = {1000, 1000};
  NeighborSampler sampler(&ds.graph, options);
  const std::vector<int64_t> seeds = {12, 57};
  const Subgraph block = sampler.SampleBlock(seeds);
  std::set<int64_t> expected(seeds.begin(), seeds.end());
  for (const int64_t s : seeds) {
    for (const int64_t v : KHopNeighbors(ds.graph, s, 2)) expected.insert(v);
  }
  EXPECT_EQ(block.nodes,
            std::vector<int64_t>(expected.begin(), expected.end()));
}

TEST(SamplerTest, MakeBatchesPartitionsAllIndices) {
  Rng rng(3);
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < 23; ++i) idx.push_back(i * 2);
  const auto batches =
      NeighborSampler::MakeBatches(idx, 5, /*shuffle=*/true, &rng);
  ASSERT_EQ(batches.size(), 5u);
  std::vector<int64_t> flat;
  for (const auto& b : batches) {
    EXPECT_LE(b.size(), 5u);
    flat.insert(flat.end(), b.begin(), b.end());
  }
  std::sort(flat.begin(), flat.end());
  EXPECT_EQ(flat, idx);
}

TEST(SamplerTest, UnlimitedFanoutKeepsEveryNeighborWithoutRngDraws) {
  data::Dataset ds = MakeDataset(21);
  int64_t v = 0;
  while (ds.graph.Degree(v) < 2) ++v;
  Rng rng(5);
  const auto all =
      NeighborSampler::SampleNeighbors(ds.graph, v, -1, false, &rng);
  EXPECT_EQ(all, std::vector<int64_t>(ds.graph.NeighborsBegin(v),
                                      ds.graph.NeighborsEnd(v)));
  // -1 validates; 0 still does not.
  SamplerOptions opts;
  opts.fanouts = {-1, -1};
  EXPECT_TRUE(opts.Validate().ok());
  opts.fanouts = {0};
  EXPECT_FALSE(opts.Validate().ok());

  // An unlimited-fanout block equals the k-hop closure of its seeds.
  opts.fanouts = {-1, -1};
  NeighborSampler sampler(&ds.graph, opts);
  const Subgraph block = sampler.SampleBlock({v});
  std::vector<int64_t> want = KHopNeighbors(ds.graph, v, 2);
  want.push_back(v);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(block.nodes, want);
}

TEST(SamplerDeathTest, InvalidSeedsAbort) {
  Graph g = Graph::FromEdgeListOrDie(4, {{0, 1}, {1, 2}});
  SamplerOptions options;
  NeighborSampler sampler(&g, options);
  EXPECT_DEATH(sampler.SampleBlock({}), "empty seed set");
  EXPECT_DEATH(sampler.SampleBlock({99}), "out of range");
  EXPECT_DEATH(sampler.SampleBlock({1, 1}), "duplicate seed");
}

TEST(SubgraphTest, InducedSubgraphKeepsInternalEdgesOnly) {
  //   0-1-2-3 path plus chord 0-2; subgraph on {0,1,2} keeps 0-1,1-2,0-2.
  Graph g = Graph::FromEdgeListOrDie(4, {{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  auto block = std::move(graph::InducedSubgraph(g, {2, 0, 1, 0}, {1})).value();
  EXPECT_EQ(block.nodes, (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(block.graph.num_edges(), 3);
  EXPECT_EQ(block.seed_local, (std::vector<int64_t>{1}));
}

TEST(SubgraphTest, InducedSubgraphRejectsBadInput) {
  Graph g = Graph::FromEdgeListOrDie(4, {{0, 1}});
  EXPECT_FALSE(graph::InducedSubgraph(g, {0, 9}, {0}).ok());
  EXPECT_FALSE(graph::InducedSubgraph(g, {0, 1}, {3}).ok());
}

}  // namespace
}  // namespace graphrare
