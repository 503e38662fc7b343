// Partition-aware block scheduling tests (ctest label: partition). The
// load-bearing properties of the PR-6 layer seams:
//  * Partitioner(kIndependent) replays the legacy runner's shuffled-chunk
//    stream bitwise, so pre-refactor trajectories are unchanged.
//  * Both partition modes cover every train node exactly once per epoch,
//    deterministically.
//  * BlockPipeline produces the same ScheduledBlock stream whether
//    sampling runs inline, on one producer, or on several, under any
//    OpenMP thread count.
//  * RelativeEntropyIndex::ApplyEdits matches a full re-bucket oracle
//    (carry scores, re-split by final adjacency, canonical sort).
//  * EditMerger conflict accounting counts exactly the last-writer-wins
//    overwrites, per round and across rounds.
//  * The B=1/full-fanout rollout path stays bitwise backward-compatible
//    through the new pipeline, prefetched or inline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/graphrare.h"
#include "data/block_pipeline.h"
#include "data/partitioner.h"
#include "full_graph_reference.h"
#include "test_support.h"

namespace graphrare {
namespace {

using testing_ref::AllClose;

using core::BlockRolloutOptions;
using core::BlockRolloutRunner;
using core::ConflictStats;
using core::EditMerger;
using core::NodeEdits;
using data::BlockPipeline;
using data::BlockPipelineOptions;
using data::Partitioner;
using data::PartitionerOptions;
using data::PartitionMode;
using data::ScheduledBlock;

data::Dataset MakeSparseDataset(uint64_t seed) {
  data::GeneratorOptions o;
  o.num_nodes = 160;
  o.num_edges = 300;
  o.num_features = 40;
  o.num_classes = 3;
  o.homophily = 0.5;
  o.feature_density = 0.1;
  o.seed = seed;
  return std::move(data::GenerateDataset(o)).value();
}

entropy::RelativeEntropyIndex BuildIndex(const data::Dataset& ds,
                                         uint64_t seed = 3) {
  entropy::EntropyOptions eo;
  eo.max_two_hop_candidates = 8;
  eo.num_random_candidates = 4;
  eo.seed = seed;
  return std::move(entropy::RelativeEntropyIndex::Build(ds.graph,
                                                        ds.features, eo))
      .value();
}

// ---- Partitioner -----------------------------------------------------------

TEST(PartitionerTest, OptionsValidation) {
  PartitionerOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.batch_size = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(PartitionerTest, IndependentModeReplaysLegacyStreamBitwise) {
  data::Dataset ds = MakeSparseDataset(21);
  std::vector<int64_t> train;
  for (int64_t v = 0; v < ds.num_nodes(); v += 2) train.push_back(v);

  const uint64_t seed = 23;
  const int64_t batch_size = 12;

  // The pre-refactor BlockRolloutRunner stream: shuffle-chunk an epoch
  // with Rng(seed ^ 0xB10C5EED), emit batches in epoch order.
  Rng legacy_rng(seed ^ 0xB10C5EEDULL);
  std::vector<std::vector<int64_t>> legacy;
  for (int epoch = 0; epoch < 3; ++epoch) {
    auto batches = data::NeighborSampler::MakeBatches(train, batch_size,
                                                      /*shuffle=*/true,
                                                      &legacy_rng);
    for (auto& b : batches) legacy.push_back(std::move(b));
  }

  PartitionerOptions po;
  po.mode = PartitionMode::kIndependent;
  po.batch_size = batch_size;
  po.seed = seed;
  Partitioner partitioner(&ds.graph, train, po);
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(partitioner.NextBatch(), legacy[i])
        << "batch " << i << " diverges from the legacy stream";
  }
}

TEST(PartitionerTest, BothModesCoverEveryTrainNodeExactlyOncePerEpoch) {
  data::Dataset ds = MakeSparseDataset(22);
  std::vector<int64_t> train;
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    if (v % 3 != 0) train.push_back(v);
  }
  const int64_t batch_size = 16;
  const int64_t expect_batches =
      (static_cast<int64_t>(train.size()) + batch_size - 1) / batch_size;

  for (const PartitionMode mode :
       {PartitionMode::kIndependent, PartitionMode::kLocality}) {
    PartitionerOptions po;
    po.mode = mode;
    po.batch_size = batch_size;
    po.seed = 7;
    Partitioner partitioner(&ds.graph, train, po);
    EXPECT_EQ(partitioner.batches_per_epoch(), expect_batches);

    for (int epoch = 0; epoch < 2; ++epoch) {
      std::map<int64_t, int> seen;
      int64_t total = 0;
      for (int64_t b = 0; b < expect_batches; ++b) {
        const std::vector<int64_t> batch = partitioner.NextBatch();
        EXPECT_LE(static_cast<int64_t>(batch.size()), batch_size);
        EXPECT_FALSE(batch.empty());
        for (const int64_t v : batch) {
          ++seen[v];
          ++total;
        }
      }
      EXPECT_EQ(total, static_cast<int64_t>(train.size()))
          << "mode " << static_cast<int>(mode) << " epoch " << epoch;
      for (const int64_t v : train) {
        EXPECT_EQ(seen[v], 1) << "node " << v << " coverage in mode "
                              << static_cast<int>(mode);
      }
    }
  }
}

TEST(PartitionerTest, LocalityModeIsDeterministic) {
  data::Dataset ds = MakeSparseDataset(24);
  std::vector<int64_t> train;
  for (int64_t v = 0; v < ds.num_nodes(); ++v) train.push_back(v);

  PartitionerOptions po;
  po.mode = PartitionMode::kLocality;
  po.batch_size = 20;
  po.seed = 31;
  Partitioner a(&ds.graph, train, po);
  Partitioner b(&ds.graph, train, po);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.NextBatch(), b.NextBatch()) << "batch " << i;
  }
}

TEST(PartitionerTest, LocalityModeKeepsCliquesTogether) {
  // Eight disjoint 4-cliques; with batch_size == clique size each BFS
  // region is exactly one clique, so every locality batch must stay
  // within one clique (independent chunking would mix them).
  const int64_t kCliques = 8, kSize = 4;
  std::vector<graph::Edge> edges;
  for (int64_t c = 0; c < kCliques; ++c) {
    for (int64_t i = 0; i < kSize; ++i) {
      for (int64_t j = i + 1; j < kSize; ++j) {
        edges.push_back({c * kSize + i, c * kSize + j});
      }
    }
  }
  const graph::Graph g =
      graph::Graph::FromEdgeListOrDie(kCliques * kSize, edges);
  std::vector<int64_t> train;
  for (int64_t v = 0; v < g.num_nodes(); ++v) train.push_back(v);

  PartitionerOptions po;
  po.mode = PartitionMode::kLocality;
  po.batch_size = kSize;
  po.seed = 5;
  Partitioner partitioner(&g, train, po);
  for (int64_t b = 0; b < kCliques; ++b) {
    const std::vector<int64_t> batch = partitioner.NextBatch();
    ASSERT_EQ(static_cast<int64_t>(batch.size()), kSize);
    const int64_t clique = batch[0] / kSize;
    for (const int64_t v : batch) {
      EXPECT_EQ(v / kSize, clique) << "batch mixes cliques";
    }
  }
}

// ---- BlockPipeline: pipelined == inline, bitwise ---------------------------

std::vector<ScheduledBlock> CollectRounds(const graph::Graph* g,
                                          const std::vector<int64_t>& train,
                                          const BlockPipelineOptions& po,
                                          int rounds) {
  BlockPipeline pipeline(g, train, po);
  std::vector<ScheduledBlock> out;
  for (int r = 0; r < rounds; ++r) {
    for (ScheduledBlock& sb : pipeline.NextRound()) {
      out.push_back(std::move(sb));
    }
  }
  return out;
}

void ExpectSameBlocks(const std::vector<ScheduledBlock>& a,
                      const std::vector<ScheduledBlock>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].block_index, b[i].block_index) << what << " block " << i;
    EXPECT_EQ(a[i].seeds, b[i].seeds) << what << " block " << i;
    EXPECT_EQ(a[i].block.nodes, b[i].block.nodes) << what << " block " << i;
    EXPECT_EQ(a[i].block.seed_global, b[i].block.seed_global)
        << what << " block " << i;
    EXPECT_EQ(a[i].block.seed_local, b[i].block.seed_local)
        << what << " block " << i;
    EXPECT_EQ(a[i].block.graph.edges(), b[i].block.graph.edges())
        << what << " block " << i;
  }
}

TEST(BlockPipelineTest, PipelinedMatchesInlineBitwise) {
  data::Dataset ds = MakeSparseDataset(25);
  std::vector<int64_t> train;
  for (int64_t v = 0; v < ds.num_nodes(); v += 2) train.push_back(v);

  BlockPipelineOptions base;
  base.sampler.fanouts = {4, 4};
  base.sampler.seed = 13;
  base.blocks_per_round = 3;
  base.seeds_per_block = 10;
  base.partition_seed = 13;
  const int kRounds = 6;

  for (const PartitionMode mode :
       {PartitionMode::kIndependent, PartitionMode::kLocality}) {
    BlockPipelineOptions inline_po = base;
    inline_po.partition = mode;
    inline_po.prefetch_depth = 0;
    const auto inline_blocks =
        CollectRounds(&ds.graph, train, inline_po, kRounds);

    for (const int depth : {1, 3}) {
      for (const int producers : {1, 3}) {
        BlockPipelineOptions po = inline_po;
        po.prefetch_depth = depth;
        po.num_producers = producers;
        const auto piped = CollectRounds(&ds.graph, train, po, kRounds);
        ExpectSameBlocks(inline_blocks, piped, "pipelined vs inline");
      }
    }
  }
}

#ifdef _OPENMP
TEST(BlockPipelineTest, StreamInvariantToOmpThreadCount) {
  data::Dataset ds = MakeSparseDataset(26);
  std::vector<int64_t> train;
  for (int64_t v = 0; v < ds.num_nodes(); v += 3) train.push_back(v);

  BlockPipelineOptions po;
  po.sampler.fanouts = {6, 4};
  po.sampler.seed = 17;
  po.blocks_per_round = 2;
  po.seeds_per_block = 8;
  po.partition_seed = 17;
  po.prefetch_depth = 2;
  po.num_producers = 2;

  const int old_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto t1 = CollectRounds(&ds.graph, train, po, 5);
  omp_set_num_threads(4);
  const auto t4 = CollectRounds(&ds.graph, train, po, 5);
  omp_set_num_threads(old_threads);
  ExpectSameBlocks(t1, t4, "omp 1 vs 4 threads");
}
#endif  // _OPENMP

TEST(BlockPipelineTest, FullGraphModePrefetchesIdentityBlocks) {
  data::Dataset ds = MakeSparseDataset(27);
  std::vector<int64_t> train;
  for (int64_t v = 0; v < ds.num_nodes(); v += 4) train.push_back(v);

  BlockPipelineOptions po;
  po.sampler.fanouts = {};  // full-graph mode
  po.blocks_per_round = 1;
  po.seeds_per_block = static_cast<int64_t>(train.size());
  po.partition_seed = 3;
  po.prefetch_depth = 2;
  BlockPipeline pipeline(&ds.graph, train, po);
  const auto round = pipeline.NextRound();
  ASSERT_EQ(round.size(), 1u);
  EXPECT_EQ(round[0].block.num_nodes(), ds.num_nodes());
  EXPECT_EQ(round[0].block.graph.edges(), ds.graph.edges());
}

// ---- EdgeListDiff ----------------------------------------------------------

TEST(EdgeListDiffTest, ReportsSymmetricDifferenceSorted) {
  const graph::Graph before =
      graph::Graph::FromEdgeListOrDie(6, {{0, 1}, {1, 2}, {2, 3}, {4, 5}});
  const graph::Graph after =
      graph::Graph::FromEdgeListOrDie(6, {{0, 1}, {1, 3}, {2, 3}, {3, 5}});
  std::vector<graph::Edge> added, removed;
  graph::EdgeListDiff(before, after, &added, &removed);
  EXPECT_EQ(added, (std::vector<graph::Edge>{{1, 3}, {3, 5}}));
  EXPECT_EQ(removed, (std::vector<graph::Edge>{{1, 2}, {4, 5}}));

  graph::EdgeListDiff(before, before, &added, &removed);
  EXPECT_TRUE(added.empty());
  EXPECT_TRUE(removed.empty());
}

// ---- Incremental entropy refresh vs full re-bucket oracle ------------------

// Full re-bucket oracle: every scored pair of the pre-refresh index keeps
// its score, membership follows the final graph's adjacency, and the
// sequences sort by the canonical comparators. This is exactly what
// ApplyEdits must reproduce when fed the (before, after) edge diffs.
void ExpectIndexMatchesRebucket(const entropy::RelativeEntropyIndex& original,
                                const entropy::RelativeEntropyIndex& refreshed,
                                const graph::Graph& final_g) {
  ASSERT_EQ(original.num_nodes(), refreshed.num_nodes());
  for (int64_t v = 0; v < original.num_nodes(); ++v) {
    const auto& src = original.sequences(v);
    std::vector<entropy::ScoredNode> want_remote, want_neighbors;
    auto place = [&](const entropy::ScoredNode& s) {
      if (final_g.HasEdge(v, s.node)) {
        want_neighbors.push_back(s);
      } else {
        want_remote.push_back(s);
      }
    };
    for (const auto& s : src.remote) place(s);
    for (const auto& s : src.neighbors) place(s);
    std::sort(want_remote.begin(), want_remote.end(),
              [](const entropy::ScoredNode& a, const entropy::ScoredNode& b) {
                return a.entropy != b.entropy ? a.entropy > b.entropy
                                              : a.node < b.node;
              });
    std::sort(want_neighbors.begin(), want_neighbors.end(),
              [](const entropy::ScoredNode& a, const entropy::ScoredNode& b) {
                return a.entropy != b.entropy ? a.entropy < b.entropy
                                              : a.node < b.node;
              });

    const auto& got = refreshed.sequences(v);
    ASSERT_EQ(got.remote.size(), want_remote.size()) << "node " << v;
    for (size_t i = 0; i < want_remote.size(); ++i) {
      EXPECT_EQ(got.remote[i].node, want_remote[i].node) << "node " << v;
      EXPECT_EQ(got.remote[i].entropy, want_remote[i].entropy)
          << "node " << v;
    }
    ASSERT_EQ(got.neighbors.size(), want_neighbors.size()) << "node " << v;
    for (size_t i = 0; i < want_neighbors.size(); ++i) {
      EXPECT_EQ(got.neighbors[i].node, want_neighbors[i].node)
          << "node " << v;
      EXPECT_EQ(got.neighbors[i].entropy, want_neighbors[i].entropy)
          << "node " << v;
    }
  }
}

TEST(EntropyRefreshTest, ApplyEditsMatchesFullRebucketOracle) {
  data::Dataset ds = MakeSparseDataset(28);
  const entropy::RelativeEntropyIndex original = BuildIndex(ds);
  entropy::RelativeEntropyIndex refreshed = original;

  // Drive realistic multi-round rewiring through the topology optimizer:
  // additions come from remote prefixes, deletions from neighbor
  // prefixes, exactly the scored pairs ApplyEdits must re-bucket.
  graph::Graph current = ds.graph;
  core::TopologyState s1(ds.num_nodes(), 2, 2);
  s1.SetUniform(1, 1);
  core::TopologyState s2(ds.num_nodes(), 3, 3);
  s2.SetUniform(2, 0);
  core::TopologyState s3(ds.num_nodes(), 3, 3);
  s3.SetUniform(0, 2);
  for (const core::TopologyState* state : {&s1, &s2, &s3}) {
    // Each round rewires from G_0 slices against the ORIGINAL scores (the
    // optimizer contract), then the diff is applied incrementally.
    const graph::Graph next =
        core::BuildOptimizedGraph(ds.graph, *state, original);
    std::vector<graph::Edge> added, removed;
    graph::EdgeListDiff(current, next, &added, &removed);
    refreshed.ApplyEdits(added, removed);
    current = next;
    ExpectIndexMatchesRebucket(original, refreshed, current);
  }
}

TEST(EntropyRefreshTest, UnscoredPairsAreNoOps) {
  data::Dataset ds = MakeSparseDataset(29);
  const entropy::RelativeEntropyIndex original = BuildIndex(ds);
  entropy::RelativeEntropyIndex refreshed = original;

  // Find a pair scored in neither direction: refresh must ignore it.
  int64_t pu = -1, pv = -1;
  for (int64_t u = 0; u < ds.num_nodes() && pu < 0; ++u) {
    for (int64_t v = u + 1; v < ds.num_nodes() && pu < 0; ++v) {
      if (ds.graph.HasEdge(u, v)) continue;
      auto scored = [&](int64_t a, int64_t b) {
        for (const auto& s : original.sequences(a).remote) {
          if (s.node == b) return true;
        }
        for (const auto& s : original.sequences(a).neighbors) {
          if (s.node == b) return true;
        }
        return false;
      };
      if (!scored(u, v) && !scored(v, u)) {
        pu = u;
        pv = v;
      }
    }
  }
  ASSERT_GE(pu, 0) << "dataset unexpectedly scores every pair";

  refreshed.ApplyEdits({{pu, pv}}, {});
  for (int64_t v = 0; v < original.num_nodes(); ++v) {
    const auto& a = original.sequences(v);
    const auto& b = refreshed.sequences(v);
    ASSERT_EQ(a.remote.size(), b.remote.size());
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
  }
}

// ---- EditMerger conflict accounting ----------------------------------------

TEST(EditMergerConflictTest, CountsOverlapWithinRound) {
  EditMerger merger;
  merger.BeginRound();
  merger.Record(3, NodeEdits{});
  merger.Record(5, NodeEdits{});
  merger.Record(3, NodeEdits{});  // block overlap on node 3
  merger.Record(3, NodeEdits{});  // and a third writer
  const ConflictStats& s = merger.round_stats();
  EXPECT_EQ(s.nodes_recorded, 2);
  EXPECT_EQ(s.conflict_nodes, 1);
  EXPECT_EQ(s.overwrites, 2);
  EXPECT_EQ(s.cross_round_overwrites, 0);
  EXPECT_DOUBLE_EQ(s.ConflictRate(), 0.5);
}

TEST(EditMergerConflictTest, DisjointBlocksReportNoConflicts) {
  EditMerger merger;
  merger.BeginRound();
  for (int64_t v = 0; v < 10; ++v) merger.Record(v, NodeEdits{});
  const ConflictStats& s = merger.round_stats();
  EXPECT_EQ(s.nodes_recorded, 10);
  EXPECT_EQ(s.conflict_nodes, 0);
  EXPECT_EQ(s.overwrites, 0);
  EXPECT_DOUBLE_EQ(s.ConflictRate(), 0.0);
}

TEST(EditMergerConflictTest, TracksCrossRoundOverwritesSeparately) {
  EditMerger merger;
  merger.BeginRound();
  merger.Record(1, NodeEdits{});
  merger.Record(2, NodeEdits{});

  merger.BeginRound();
  merger.Record(2, NodeEdits{});  // re-owned from round 1: cross-round
  merger.Record(7, NodeEdits{});  // fresh
  const ConflictStats& s = merger.round_stats();
  EXPECT_EQ(s.nodes_recorded, 2);
  EXPECT_EQ(s.conflict_nodes, 0);  // no within-round overlap
  EXPECT_EQ(s.overwrites, 0);
  EXPECT_EQ(s.cross_round_overwrites, 1);
}

// ---- Backward compat: prefetched pipeline == inline rollout ----------------

nn::ModelOptions NoDropoutOptions(const data::Dataset& ds, uint64_t seed) {
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 12;
  mo.num_classes = ds.num_classes;
  mo.dropout = 0.0f;
  mo.seed = seed;
  return mo;
}

struct RolloutOutcome {
  std::vector<double> mean_rewards;
  std::vector<graph::Edge> merged_edges;
  std::vector<tensor::Tensor> weights;
};

RolloutOutcome RunRollout(const data::Dataset& ds, const data::Split& split,
                          const entropy::RelativeEntropyIndex& index,
                          const BlockRolloutOptions& ro, int rounds) {
  auto model = nn::MakeModel(nn::BackboneKind::kSage,
                             NoDropoutOptions(ds, 7));
  nn::MiniBatchTrainer::Options topts;
  topts.seed = 7;
  nn::MiniBatchTrainer trainer(model.get(), ds.FeaturesCsr(), &ds.labels,
                               topts);
  rl::PpoOptions po;
  po.steps_per_update = 3;
  po.seed = 19;
  rl::PpoAgent agent(core::kObservationDim, po);
  BlockRolloutRunner runner(&ds, &split, &trainer, &index, ro);
  RolloutOutcome out;
  for (int r = 0; r < rounds; ++r) {
    out.mean_rewards.push_back(runner.RunRound(&agent).mean_reward);
  }
  out.merged_edges = runner.MergedGraph().edges();
  out.weights = trainer.SaveWeights();
  return out;
}

TEST(BackwardCompatTest, PrefetchedRolloutMatchesInlineBitwise) {
  data::Dataset ds = MakeSparseDataset(30);
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  const auto index = BuildIndex(ds);

  BlockRolloutOptions ro;
  ro.blocks_per_round = 2;
  ro.seeds_per_block = 12;
  ro.fanouts = {4, 4};
  ro.steps_per_episode = 3;
  ro.env.gnn_epochs_per_step = 1;
  ro.seed = 23;

  BlockRolloutOptions inline_ro = ro;
  inline_ro.prefetch_depth = 0;
  const RolloutOutcome inline_out =
      RunRollout(ds, splits[0], index, inline_ro, 3);

  BlockRolloutOptions piped_ro = ro;
  piped_ro.prefetch_depth = 2;
  piped_ro.num_producers = 2;
  const RolloutOutcome piped_out =
      RunRollout(ds, splits[0], index, piped_ro, 3);

  EXPECT_EQ(inline_out.mean_rewards, piped_out.mean_rewards);
  EXPECT_EQ(inline_out.merged_edges, piped_out.merged_edges);
  ASSERT_EQ(inline_out.weights.size(), piped_out.weights.size());
  for (size_t i = 0; i < inline_out.weights.size(); ++i) {
    EXPECT_TRUE(
        AllClose(inline_out.weights[i], piped_out.weights[i], 0.0f, 0.0f))
        << "weights diverge at parameter " << i;
  }
}

TEST(BackwardCompatTest, B1FullFanoutReproducesFullGraphThroughPipeline) {
  data::Dataset ds = MakeSparseDataset(16);  // same data as rl suite's pin
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  const auto index = BuildIndex(ds);

  core::TopologyEnvOptions eo;
  eo.gnn_epochs_per_step = 1;
  rl::PpoOptions po;
  po.steps_per_update = 3;
  po.seed = 19;
  const int steps = 6;

  // Full-graph reference trajectory: a plain PPO loop over the
  // written-out full-graph step + ClassifierTrainer.
  auto full_model = nn::MakeModel(nn::BackboneKind::kSage,
                                  NoDropoutOptions(ds, 7));
  nn::ClassifierTrainer::Options full_topts;
  full_topts.seed = 7;
  nn::ClassifierTrainer full_trainer(
      full_model.get(), nn::LayerInput::Sparse(ds.FeaturesCsr()),
      &ds.labels, full_topts);
  testing_ref::FullGraphReference full_env(&ds, &splits[0], &full_trainer,
                                           &index, eo);
  rl::PpoAgent full_agent(core::kObservationDim, po);
  const std::vector<double> full_rewards =
      testing_ref::RunPpoOnReference(&full_agent, &full_env, steps);

  // B=1/full-fanout through the new pipeline, prefetching enabled.
  auto mb_model = nn::MakeModel(nn::BackboneKind::kSage,
                                NoDropoutOptions(ds, 7));
  nn::MiniBatchTrainer::Options mb_topts;
  mb_topts.seed = 7;
  nn::MiniBatchTrainer mb_trainer(mb_model.get(), ds.FeaturesCsr(),
                                  &ds.labels, mb_topts);
  BlockRolloutOptions ro;
  ro.blocks_per_round = 1;
  ro.fanouts = {};
  ro.seeds_per_block = ds.num_nodes();
  ro.steps_per_episode = steps;
  ro.env = eo;
  ro.prefetch_depth = 2;
  ro.num_producers = 2;
  BlockRolloutRunner runner(&ds, &splits[0], &mb_trainer, &index, ro);
  rl::PpoAgent block_agent(core::kObservationDim, po);
  const BlockRolloutRunner::RoundStats stats = runner.RunRound(&block_agent);

  ASSERT_EQ(stats.env_steps, static_cast<int64_t>(full_rewards.size()));
  double full_mean = 0.0;
  for (const double r : full_rewards) full_mean += r;
  full_mean /= static_cast<double>(full_rewards.size());
  EXPECT_EQ(stats.mean_reward, full_mean);
  EXPECT_EQ(runner.MergedGraph().edges(), full_env.current_graph().edges());
}

// ---- Locality + refresh end-to-end smoke -----------------------------------

TEST(PartitionCoTrainTest, LocalityWithEntropyRefreshCoTrains) {
  data::Dataset ds = MakeSparseDataset(31);
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  core::GraphRareOptions opts;
  opts.backbone = nn::BackboneKind::kSage;
  opts.hidden = 12;
  opts.dropout = 0.0f;
  opts.entropy.max_two_hop_candidates = 6;
  opts.entropy.num_random_candidates = 2;
  opts.iterations = 2;
  opts.pretrain_epochs = 1;
  opts.ppo.steps_per_update = 3;
  opts.seed = 9;

  BlockRolloutOptions ro;
  ro.blocks_per_round = 3;
  ro.seeds_per_block = 16;
  ro.fanouts = {4, 4};
  ro.steps_per_episode = 2;
  ro.env.gnn_epochs_per_step = 1;
  ro.partition = PartitionMode::kLocality;
  ro.prefetch_depth = 2;
  ro.refresh_entropy = true;

  const core::GraphRareResult result =
      core::RunBlockCoTraining(ds, splits[0], opts, ro);
  EXPECT_EQ(result.round_telemetry.size(), 2u);
  for (const core::BlockRoundTelemetry& t : result.round_telemetry) {
    EXPECT_EQ(t.num_blocks, 3);
    EXPECT_GE(t.conflicts.nodes_recorded, t.conflicts.conflict_nodes);
    EXPECT_GE(t.conflicts.ConflictRate(), 0.0);
    EXPECT_LE(t.conflicts.ConflictRate(), 1.0);
    EXPECT_TRUE(std::isfinite(t.mean_reward));
  }
  EXPECT_GT(result.final_edges, 0);
}

}  // namespace
}  // namespace graphrare
