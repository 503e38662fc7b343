// Block-scoped RL topology optimization tests (ctest label: rl). The
// load-bearing properties:
//  * RelativeEntropyIndex::Restrict remaps sequences into block-local id
//    space exactly (drop-outside-block, order preserved, no recompute).
//  * EditMerger resolves block overlap last-writer-wins per node and merges
//    deterministically (block-order-invariant for disjoint blocks), into
//    exactly the graph the reference editor (graph_editor_reference.h)
//    builds from the surviving per-node edits.
//  * Full-graph mode is the B=1/full-fanout special case: a
//    BlockTopologyEnv over the identity block reproduces the full-graph
//    step written out from public calls (full_graph_reference.h) BITWISE
//    (same rewards, observations, rewired edge set, post-finetune
//    weights) — scripted actions and PPO-driven alike.
//  * RunGraphRareBlocks hands back the block path's telemetry in the
//    shared GraphRareResult, and RunBlockCoTraining aborts on the ablation
//    knobs it does not implement.
//  * A seeded RunBlockCoTraining run is pinned across commits and across
//    OpenMP thread counts by a digest of its result bytes.
//  * End-to-end: block-scoped co-training completes in seconds on a
//    10k-node graph, a scale where full-graph episodes are slow
//    (full-graph per-step cost grows with the whole adjacency).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/graphrare.h"
#include "full_graph_reference.h"
#include "graph_editor_reference.h"
#include "test_support.h"

namespace graphrare {
namespace {

using testing_ref::AllClose;
using testing_ref::KHopNeighbors;

using core::BlockRolloutOptions;
using core::BlockRolloutRunner;
using core::BlockTopologyEnv;
using core::EditMerger;
using core::NodeEdits;
using core::TopologyEnvOptions;
using testing_ref::FullGraphReference;

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

// ---- Options validation (Status, not a crash) ------------------------------

TEST(TopologyEnvOptionsTest, RejectsNegativeBounds) {
  TopologyEnvOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.k_max = -1;
  EXPECT_FALSE(o.Validate().ok());
  o = TopologyEnvOptions();
  o.d_max = -3;
  EXPECT_FALSE(o.Validate().ok());
  o = TopologyEnvOptions();
  o.gnn_epochs_per_step = -1;
  EXPECT_FALSE(o.Validate().ok());
  o = TopologyEnvOptions();
  o.reward.lambda_r = -0.5;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(TopologyEnvOptionsTest, RejectsNegativeEntropyLambda) {
  TopologyEnvOptions o;
  o.entropy.lambda = -0.25;
  const Status s = o.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("lambda"), std::string::npos);
}

TEST(BlockRolloutOptionsTest, Validation) {
  BlockRolloutOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.blocks_per_round = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = BlockRolloutOptions();
  o.seeds_per_block = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = BlockRolloutOptions();
  o.steps_per_episode = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = BlockRolloutOptions();
  o.fanouts = {10, 0};
  EXPECT_FALSE(o.Validate().ok());
  o.fanouts = {10, -1};  // -1 = unlimited is legal
  EXPECT_TRUE(o.Validate().ok());
  o = BlockRolloutOptions();
  o.env.k_max = -2;
  EXPECT_FALSE(o.Validate().ok());
}

// ---- Restrict remap integrity ----------------------------------------------

TEST(RestrictTest, IdentityBlockReproducesIndexExactly) {
  data::Dataset ds = MakeSparseDataset(11);
  const auto index = BuildIndex(ds);
  const graph::Subgraph block = graph::FullSubgraph(ds.graph, {0, 5});
  const auto restricted = index.Restrict(block);

  ASSERT_EQ(restricted.num_nodes(), index.num_nodes());
  EXPECT_EQ(restricted.lambda(), index.lambda());
  for (int64_t v = 0; v < index.num_nodes(); ++v) {
    const auto& a = index.sequences(v);
    const auto& b = restricted.sequences(v);
    ASSERT_EQ(a.remote.size(), b.remote.size());
    for (size_t i = 0; i < a.remote.size(); ++i) {
      EXPECT_EQ(a.remote[i].node, b.remote[i].node);
      EXPECT_EQ(a.remote[i].entropy, b.remote[i].entropy);
    }
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].node, b.neighbors[i].node);
      EXPECT_EQ(a.neighbors[i].entropy, b.neighbors[i].entropy);
    }
  }
}

TEST(RestrictTest, RemapsAndFiltersSampledBlock) {
  data::Dataset ds = MakeSparseDataset(12);
  const auto index = BuildIndex(ds);

  data::SamplerOptions so;
  so.fanouts = {4, 4};
  so.seed = 9;
  data::NeighborSampler sampler(&ds.graph, so);
  std::vector<int64_t> seeds;
  for (int64_t v = 0; v < ds.num_nodes() && seeds.size() < 8; v += 19) {
    if (ds.graph.Degree(v) > 0) seeds.push_back(v);
  }
  ASSERT_GE(seeds.size(), 4u);
  const graph::Subgraph block = sampler.SampleBlock(seeds);
  ASSERT_LT(block.num_nodes(), ds.num_nodes());

  const auto restricted = index.Restrict(block);
  ASSERT_EQ(restricted.num_nodes(), block.num_nodes());
  for (int64_t local = 0; local < block.num_nodes(); ++local) {
    const int64_t global = block.nodes[static_cast<size_t>(local)];
    const auto& src = index.sequences(global);
    const auto& dst = restricted.sequences(local);

    // Expected: the global sequence filtered to block members, remapped.
    std::vector<entropy::ScoredNode> want_remote;
    for (const auto& s : src.remote) {
      const int64_t l = block.GlobalToLocal(s.node);
      if (l >= 0) want_remote.push_back({l, s.entropy});
    }
    ASSERT_EQ(dst.remote.size(), want_remote.size());
    for (size_t i = 0; i < want_remote.size(); ++i) {
      EXPECT_EQ(dst.remote[i].node, want_remote[i].node);
      EXPECT_EQ(dst.remote[i].entropy, want_remote[i].entropy);
      EXPECT_GE(dst.remote[i].node, 0);
      EXPECT_LT(dst.remote[i].node, block.num_nodes());
    }
    std::vector<entropy::ScoredNode> want_neighbors;
    for (const auto& s : src.neighbors) {
      const int64_t l = block.GlobalToLocal(s.node);
      if (l >= 0) want_neighbors.push_back({l, s.entropy});
    }
    ASSERT_EQ(dst.neighbors.size(), want_neighbors.size());
    for (size_t i = 0; i < want_neighbors.size(); ++i) {
      EXPECT_EQ(dst.neighbors[i].node, want_neighbors[i].node);
      EXPECT_EQ(dst.neighbors[i].entropy, want_neighbors[i].entropy);
    }
  }
}

// ---- EditMerger ------------------------------------------------------------

TEST(EditMergerTest, LastWriterWinsPerNode) {
  // Path 0-1-2-3 plus isolated 4.
  const graph::Graph g =
      graph::Graph::FromEdgeListOrDie(5, {{0, 1}, {1, 2}, {2, 3}});
  EditMerger merger;
  NodeEdits first;
  first.add = {3};     // 0-3
  first.remove = {1};  // drop 0-1
  merger.Record(0, first);
  NodeEdits second;
  second.add = {4};  // 0-4; the earlier 0-3/drop-0-1 must be forgotten
  merger.Record(0, second);

  const graph::Graph merged = merger.Merge(g);
  EXPECT_TRUE(merged.HasEdge(0, 4));
  EXPECT_TRUE(merged.HasEdge(0, 1));   // removal was overwritten
  EXPECT_FALSE(merged.HasEdge(0, 3));  // addition was overwritten
  EXPECT_EQ(merger.round_stats().nodes_recorded, 1);

  // An empty record still claims ownership and erases earlier edits.
  merger.Record(0, NodeEdits{});
  const graph::Graph cleared = merger.Merge(g);
  EXPECT_EQ(cleared.edges(), g.edges());
}

TEST(EditMergerTest, DisjointBlocksMergeOrderInvariant) {
  data::Dataset ds = MakeSparseDataset(13);
  const auto index = BuildIndex(ds);

  // Two disjoint single-seed blocks (1-hop closures) with deterministic
  // states.
  auto make_block = [&](int64_t seed_node) {
    std::vector<int64_t> nodes = KHopNeighbors(ds.graph, seed_node, 1);
    nodes.push_back(seed_node);
    return std::move(
               graph::InducedSubgraph(ds.graph, nodes, {seed_node}))
        .value();
  };
  int64_t va = -1, vb = -1;
  graph::Subgraph a;
  for (int64_t v = 0; v < ds.num_nodes() && vb < 0; ++v) {
    if (ds.graph.Degree(v) == 0) continue;
    if (va < 0) {
      va = v;
      a = make_block(va);
      continue;
    }
    const graph::Subgraph candidate = make_block(v);
    bool overlap = false;
    for (const int64_t u : a.nodes) {
      if (candidate.GlobalToLocal(u) >= 0) overlap = true;
    }
    if (!overlap) vb = v;
  }
  ASSERT_GE(va, 0);
  ASSERT_GE(vb, 0);
  const graph::Subgraph b = make_block(vb);

  core::TopologyState state_a(a.num_nodes(), 2, 2);
  state_a.SetUniform(1, 1);
  core::TopologyState state_b(b.num_nodes(), 2, 2);
  state_b.SetUniform(2, 0);

  EditMerger ab;
  ab.RecordBlock(a, state_a, index.Restrict(a));
  ab.RecordBlock(b, state_b, index.Restrict(b));
  EditMerger ba;
  ba.RecordBlock(b, state_b, index.Restrict(b));
  ba.RecordBlock(a, state_a, index.Restrict(a));

  EXPECT_EQ(ab.Merge(ds.graph).edges(), ba.Merge(ds.graph).edges());
}

TEST(EditMergerTest, OverlappingBlocksMatchReferenceEditor) {
  data::Dataset ds = MakeSparseDataset(16);
  const auto index = BuildIndex(ds);
  data::SamplerOptions so;
  so.fanouts = {4, 4};
  so.seed = 11;
  data::NeighborSampler sampler(&ds.graph, so);
  Rng rng(31);

  // Blocks around consecutive seed windows overlap through shared
  // neighbourhoods. The reference keeps each node's last recorded slice
  // and replays the slices in ascending node order through the editor.
  EditMerger merger;
  std::map<int64_t, NodeEdits> last_slice;
  for (int b = 0; b < 6; ++b) {
    std::vector<int64_t> seeds;
    for (int64_t i = 0; i < 6; ++i) seeds.push_back((b * 4 + i * 13) % 160);
    const graph::Subgraph block = sampler.SampleBlock(seeds);
    const auto restricted = index.Restrict(block);
    core::TopologyState state(block.num_nodes(), 4, 4);
    state.SetRandom(4, 4, &rng);
    merger.RecordBlock(block, state, restricted);
    for (int64_t local = 0; local < block.num_nodes(); ++local) {
      NodeEdits edits = core::EditsForNode(local, state, restricted);
      for (int64_t& t : edits.add) t = block.nodes[static_cast<size_t>(t)];
      for (int64_t& t : edits.remove) t = block.nodes[static_cast<size_t>(t)];
      last_slice[block.nodes[static_cast<size_t>(local)]] = std::move(edits);
    }
  }
  ASSERT_GT(merger.round_stats().conflict_nodes, 0);

  // Self-loop edits are ignored by both.
  NodeEdits self;
  self.add = {5};
  self.remove = {5};
  merger.Record(5, self);
  last_slice[5] = self;

  testing_ref::ReferenceGraphEditor editor(&ds.graph);
  for (const auto& [v, edits] : last_slice) {
    for (const int64_t u : edits.add) editor.AddEdge(v, u);
    for (const int64_t u : edits.remove) editor.RemoveEdge(v, u);
  }
  EXPECT_TRUE(testing_ref::SameGraph(merger.Merge(ds.graph), editor.Build()));
}

TEST(EditMergerTest, BaseEdgeRemovedThenReAddedStaysPresent) {
  // Path 0-1-2: node 0's slice removes 0-1, node 1's slice adds it back.
  // Node 1 is applied later, so its addition is the edge's last edit.
  const graph::Graph g = graph::Graph::FromEdgeListOrDie(3, {{0, 1}, {1, 2}});
  EditMerger merger;
  NodeEdits drop;
  drop.remove = {1};
  merger.Record(0, drop);
  NodeEdits re_add;
  re_add.add = {0};
  merger.Record(1, re_add);
  EXPECT_EQ(merger.Merge(g).edges(), g.edges());

  // The other way round the removal is last, and the edge goes.
  EditMerger reversed;
  NodeEdits add_first;
  add_first.add = {1};
  reversed.Record(0, add_first);
  NodeEdits drop_last;
  drop_last.remove = {0};
  reversed.Record(1, drop_last);
  EXPECT_FALSE(reversed.Merge(g).HasEdge(0, 1));
}

TEST(EditMergerTest, RecordBlockRemapsToGlobalIds) {
  data::Dataset ds = MakeSparseDataset(14);
  const auto index = BuildIndex(ds);
  // Identity block: merged result must equal BuildOptimizedGraph on G_0.
  const graph::Subgraph block = graph::FullSubgraph(ds.graph, {0});
  const auto restricted = index.Restrict(block);
  core::TopologyState state(ds.num_nodes(), 3, 3);
  state.SetUniform(2, 1);

  EditMerger merger;
  merger.RecordBlock(block, state, restricted);
  const graph::Graph merged = merger.Merge(ds.graph);
  const graph::Graph direct = core::BuildOptimizedGraph(ds.graph, state, index);
  EXPECT_EQ(merged.edges(), direct.edges());
}

// ---- Full-graph special case: bitwise equivalence --------------------------

nn::ModelOptions NoDropoutOptions(const data::Dataset& ds, uint64_t seed) {
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 12;
  mo.num_classes = ds.num_classes;
  mo.dropout = 0.0f;  // the two paths draw from different dropout streams
  mo.seed = seed;
  return mo;
}

TEST(BlockEnvEquivalenceTest, ScriptedFullBlockEpisodeMatchesFullGraph) {
  data::Dataset ds = MakeSparseDataset(15);
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  const auto index = BuildIndex(ds);

  TopologyEnvOptions eo;
  eo.k_max = 3;
  eo.d_max = 2;
  eo.gnn_epochs_per_step = 1;

  // Full-graph reference: the written-out step + ClassifierTrainer.
  auto full_model = nn::MakeModel(nn::BackboneKind::kSage,
                                  NoDropoutOptions(ds, 101));
  nn::ClassifierTrainer::Options full_topts;
  full_topts.seed = 101;
  nn::ClassifierTrainer full_trainer(
      full_model.get(), nn::LayerInput::Sparse(ds.FeaturesCsr()),
      &ds.labels, full_topts);
  FullGraphReference full_env(&ds, &splits[0], &full_trainer, &index, eo);

  // Block path: identity block + MiniBatchTrainer, same model seed.
  auto mb_model = nn::MakeModel(nn::BackboneKind::kSage,
                                NoDropoutOptions(ds, 101));
  nn::MiniBatchTrainer::Options mb_topts;
  mb_topts.seed = 101;
  nn::MiniBatchTrainer mb_trainer(mb_model.get(), ds.FeaturesCsr(),
                                  &ds.labels, mb_topts);
  const graph::Subgraph block =
      graph::FullSubgraph(ds.graph, splits[0].train);
  BlockTopologyEnv block_env(&ds, block, splits[0].train, &mb_trainer,
                             index.Restrict(block), eo);

  tensor::Tensor full_obs = full_env.Reset();
  tensor::Tensor block_obs = block_env.Reset();
  ASSERT_TRUE(AllClose(full_obs, block_obs, 0.0f, 0.0f));

  Rng action_rng(77);
  for (int t = 0; t < 4; ++t) {
    rl::ActionSample action;
    for (int64_t v = 0; v < ds.num_nodes(); ++v) {
      action.delta_k.push_back(
          static_cast<int>(action_rng.UniformInt(-1, 1)));
      action.delta_d.push_back(
          static_cast<int>(action_rng.UniformInt(-1, 1)));
    }
    const double full_reward = full_env.Step(action, &full_obs);
    const double block_reward = block_env.Step(action, &block_obs);
    EXPECT_EQ(full_reward, block_reward) << "reward diverges at step " << t;
    EXPECT_TRUE(AllClose(full_obs, block_obs, 0.0f, 0.0f))
        << "observation diverges at step " << t;
    // Same rewired edge set (identity block: local ids == global ids).
    EXPECT_EQ(full_env.current_graph().edges(),
              block_env.current_graph().edges())
        << "rewired edges diverge at step " << t;
  }

  // Same post-finetune weights, bitwise.
  const auto full_weights = full_trainer.SaveWeights();
  const auto mb_weights = mb_trainer.SaveWeights();
  ASSERT_EQ(full_weights.size(), mb_weights.size());
  for (size_t i = 0; i < full_weights.size(); ++i) {
    EXPECT_TRUE(AllClose(full_weights[i], mb_weights[i], 0.0f, 0.0f))
        << "post-finetune weights diverge at parameter " << i;
  }
}

TEST(BlockEnvEquivalenceTest, PpoDrivenRunnerB1ReproducesFullGraphRollout) {
  data::Dataset ds = MakeSparseDataset(16);
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  const auto index = BuildIndex(ds);

  TopologyEnvOptions eo;
  eo.gnn_epochs_per_step = 1;
  rl::PpoOptions po;
  po.steps_per_update = 3;  // two PPO updates inside the episode
  po.seed = 19;
  const int steps = 6;

  // Reference: a plain PPO loop over the written-out full-graph step.
  auto full_model = nn::MakeModel(nn::BackboneKind::kSage,
                                  NoDropoutOptions(ds, 7));
  nn::ClassifierTrainer::Options full_topts;
  full_topts.seed = 7;
  nn::ClassifierTrainer full_trainer(
      full_model.get(), nn::LayerInput::Sparse(ds.FeaturesCsr()),
      &ds.labels, full_topts);
  FullGraphReference full_env(&ds, &splits[0], &full_trainer, &index, eo);
  rl::PpoAgent full_agent(core::kObservationDim, po);
  const std::vector<double> full_rewards =
      testing_ref::RunPpoOnReference(&full_agent, &full_env, steps);

  // Block path: B=1, empty fanouts (identity block), one round.
  auto mb_model = nn::MakeModel(nn::BackboneKind::kSage,
                                NoDropoutOptions(ds, 7));
  nn::MiniBatchTrainer::Options mb_topts;
  mb_topts.seed = 7;
  nn::MiniBatchTrainer mb_trainer(mb_model.get(), ds.FeaturesCsr(),
                                  &ds.labels, mb_topts);
  BlockRolloutOptions ro;
  ro.blocks_per_round = 1;
  ro.fanouts = {};  // full-graph mode
  ro.seeds_per_block = ds.num_nodes();  // one batch covers the train set
  ro.steps_per_episode = steps;
  ro.env = eo;
  BlockRolloutRunner runner(&ds, &splits[0], &mb_trainer, &index, ro);
  rl::PpoAgent block_agent(core::kObservationDim, po);
  const BlockRolloutRunner::RoundStats stats = runner.RunRound(&block_agent);

  // Same rewards, step for step, bitwise.
  ASSERT_EQ(stats.env_steps, static_cast<int64_t>(full_rewards.size()));
  EXPECT_EQ(stats.num_blocks, 1);
  double full_mean = 0.0;
  for (const double r : full_rewards) full_mean += r;
  full_mean /= static_cast<double>(full_rewards.size());
  EXPECT_EQ(stats.mean_reward, full_mean);

  // Same rewired edge set after the episode.
  EXPECT_EQ(runner.MergedGraph().edges(), full_env.current_graph().edges());

  // Same post-finetune weights.
  const auto full_weights = full_trainer.SaveWeights();
  const auto mb_weights = mb_trainer.SaveWeights();
  ASSERT_EQ(full_weights.size(), mb_weights.size());
  for (size_t i = 0; i < full_weights.size(); ++i) {
    EXPECT_TRUE(AllClose(full_weights[i], mb_weights[i], 0.0f, 0.0f))
        << "post-finetune weights diverge at parameter " << i;
  }
}

// ---- Sampled-block episodes and end-to-end co-training ---------------------

TEST(BlockRolloutRunnerTest, SampledBlocksStayLocalAndMerge) {
  data::Dataset ds = MakeSparseDataset(17);
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  const auto index = BuildIndex(ds);

  auto model = nn::MakeModel(nn::BackboneKind::kSage,
                             NoDropoutOptions(ds, 5));
  nn::MiniBatchTrainer::Options topts;
  topts.seed = 5;
  nn::MiniBatchTrainer trainer(model.get(), ds.FeaturesCsr(), &ds.labels,
                               topts);
  BlockRolloutOptions ro;
  ro.blocks_per_round = 3;
  ro.seeds_per_block = 12;
  ro.fanouts = {4, 4};
  ro.steps_per_episode = 3;
  ro.env.gnn_epochs_per_step = 1;
  ro.seed = 23;
  BlockRolloutRunner runner(&ds, &splits[0], &trainer, &index, ro);
  rl::PpoOptions po;
  po.steps_per_update = 3;
  rl::PpoAgent agent(core::kObservationDim, po);

  const BlockRolloutRunner::RoundStats stats = runner.RunRound(&agent);
  EXPECT_EQ(stats.num_blocks, 3);
  EXPECT_EQ(stats.env_steps, 3);
  EXPECT_GT(stats.block_nodes, 0);
  EXPECT_LT(stats.block_nodes, 3 * ds.num_nodes());
  EXPECT_TRUE(std::isfinite(stats.mean_reward));

  const graph::Graph merged = runner.MergedGraph();
  EXPECT_EQ(merged.num_nodes(), ds.num_nodes());
  EXPECT_GT(stats.conflicts.nodes_recorded, 0);
  // A second round keeps accumulating (later rounds may overwrite nodes).
  const BlockRolloutRunner::RoundStats stats2 = runner.RunRound(&agent);
  EXPECT_EQ(stats2.num_blocks, 3);
}

TEST(BlockRolloutEndToEndTest, CoTrainsOnTenThousandNodeGraph) {
  // 10k nodes: full-graph episodes are slow at this scale — per-step
  // observation, rewiring, and GNN training all touch the whole
  // adjacency, so their cost grows with the graph — while block-scoped
  // rollouts finish in seconds here because per-step cost follows the
  // sampled block.
  data::GeneratorOptions o;
  o.name = "synthetic-10k";
  o.num_nodes = 10000;
  o.num_edges = 30000;
  o.num_features = 32;
  o.num_classes = 4;
  o.homophily = 0.6;
  o.feature_signal = 8.0;
  o.feature_density = 0.05;
  o.seed = 5;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  data::SplitOptions so;
  so.num_splits = 1;
  so.seed = 11;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  core::GraphRareOptions opts;
  opts.backbone = nn::BackboneKind::kSage;
  opts.hidden = 24;
  opts.dropout = 0.0f;
  opts.entropy.max_two_hop_candidates = 6;
  opts.entropy.num_random_candidates = 2;
  opts.iterations = 2;
  opts.pretrain_epochs = 2;
  opts.pretrain_patience = 2;
  opts.ppo.steps_per_update = 4;
  opts.seed = 9;

  BlockRolloutOptions ro;
  ro.blocks_per_round = 2;
  ro.seeds_per_block = 256;
  ro.fanouts = {6, 6};
  ro.steps_per_episode = 2;
  ro.env.gnn_epochs_per_step = 1;

  const core::GraphRareResult result =
      core::RunBlockCoTraining(ds, splits[0], opts, ro);

  EXPECT_EQ(result.env_steps, 2 * 2);  // iterations * steps_per_episode
  EXPECT_EQ(result.reward_history.size(), 2u);
  EXPECT_EQ(result.val_acc_history.size(), 2u);
  for (const double r : result.reward_history) {
    EXPECT_TRUE(std::isfinite(r));
  }
  EXPECT_EQ(result.best_graph.num_nodes(), ds.num_nodes());
  EXPECT_GT(result.final_edges, 0);
  // Well above the 4-class chance level: the pipeline actually learns.
  EXPECT_GT(result.test_accuracy, 0.3);
  EXPECT_GE(result.best_val_accuracy, result.val_acc_history.back() - 1e-12);
}

TEST(BlockRolloutEndToEndTest, RunGraphRareBlocksLastRunCarriesTelemetry) {
  data::Dataset ds = MakeSparseDataset(18);
  data::SplitOptions so;
  so.num_splits = 2;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  core::GraphRareOptions opts;
  opts.backbone = nn::BackboneKind::kSage;
  opts.hidden = 12;
  opts.dropout = 0.0f;
  opts.entropy.max_two_hop_candidates = 6;
  opts.entropy.num_random_candidates = 2;
  opts.iterations = 3;
  opts.pretrain_epochs = 1;
  opts.ppo.steps_per_update = 4;
  opts.seed = 4;

  BlockRolloutOptions ro;
  ro.blocks_per_round = 2;
  ro.seeds_per_block = 16;
  ro.fanouts = {4, 4};
  ro.steps_per_episode = 2;
  ro.env.gnn_epochs_per_step = 1;

  const core::GraphRareAggregate agg =
      core::RunGraphRareBlocks(ds, splits, opts, ro);
  const core::GraphRareResult& last = agg.last_run;
  EXPECT_EQ(last.env_steps, 3 * 2);  // iterations * steps_per_episode
  ASSERT_EQ(last.round_telemetry.size(), 3u);
  for (size_t t = 0; t < last.round_telemetry.size(); ++t) {
    EXPECT_EQ(last.round_telemetry[t].round, static_cast<int>(t));
    EXPECT_EQ(last.round_telemetry[t].num_blocks, 2);
    EXPECT_EQ(last.round_telemetry[t].mean_reward, last.reward_history[t]);
    EXPECT_EQ(last.round_telemetry[t].val_accuracy,
              last.val_acc_history[t]);
  }
  EXPECT_EQ(last.initial_homophily, ds.Homophily());
  EXPECT_EQ(last.final_homophily,
            last.best_graph.EdgeHomophily(ds.labels));
  EXPECT_DOUBLE_EQ(agg.mean_initial_homophily, ds.Homophily());
  ASSERT_NE(last.model, nullptr);
  EXPECT_TRUE(last.ExportArtifact(ds).ok());
}

// ---- Cross-commit pin ------------------------------------------------------

/// A small seeded block co-training run at the default dropout: SAGE,
/// two sampled blocks per round, three rounds of two-step episodes.
core::GraphRareResult PinnedBlockRun() {
  const data::Dataset ds = MakeSparseDataset(23);
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  core::GraphRareOptions opts;
  opts.backbone = nn::BackboneKind::kSage;
  opts.hidden = 12;
  opts.entropy.max_two_hop_candidates = 6;
  opts.entropy.num_random_candidates = 2;
  opts.iterations = 3;
  opts.pretrain_epochs = 3;
  opts.ppo.steps_per_update = 4;
  opts.ppo.update_epochs = 2;
  opts.seed = 31;
  BlockRolloutOptions ro;
  ro.blocks_per_round = 2;
  ro.seeds_per_block = 24;
  ro.fanouts = {4, 4};
  ro.steps_per_episode = 2;
  ro.env.gnn_epochs_per_step = 1;
  return core::RunBlockCoTraining(ds, splits[0], opts, ro);
}

std::string BlockResultDigest(const core::GraphRareResult& r) {
  testing_ref::BitDigest d;
  d.AddDoubles(r.reward_history);
  d.AddDoubles(r.train_acc_history);
  d.AddDoubles(r.val_acc_history);
  d.AddDoubles(r.homophily_history);
  d.AddEdges(r.best_graph.edges());
  d.AddDouble(r.best_val_accuracy);
  d.AddDouble(r.test_accuracy);
  d.AddDouble(r.final_homophily);
  for (const auto& [name, t] : r.model->StateDict()) {
    d.AddBytes(name.data(), name.size());
    d.AddTensor(t);
  }
  return d.Hex();
}

// Histories, the merged graph, test accuracy and the final backbone
// weights of a seeded block co-training run, hashed bit for bit and
// compared against a value recorded at an earlier commit. The run is
// repeated at 1 and 4 OpenMP threads: both must give the recorded bytes.
constexpr char kBlockRunDigest[] = "d64f4eba3a3a978b";

void ExpectPinnedBlockRun(int threads) {
  const core::GraphRareResult r = PinnedBlockRun();
  // The selected graph is a rewired one, so the pin covers the merge.
  EXPECT_NE(r.final_homophily, r.initial_homophily);
  EXPECT_EQ(BlockResultDigest(r), kBlockRunDigest)
      << threads << " thread(s)";
}

TEST(BlockCoTrainPinTest, SeededRunIsPinnedAtOneAndFourThreads) {
#ifdef _OPENMP
  const int old_threads = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    ExpectPinnedBlockRun(threads);
  }
  omp_set_num_threads(old_threads);
#else
  ExpectPinnedBlockRun(1);
#endif
}

// The block path has no Table V / Fig. 5 switches yet: each ablation knob
// aborts naming its field instead of silently running plain DRL.
TEST(BlockRolloutEndToEndDeathTest, RejectsUnsupportedAblationKnobs) {
  const data::Dataset ds = MakeSparseDataset(19);
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  BlockRolloutOptions ro;
  ro.fanouts = {4, 4};

  core::GraphRareOptions fixed;
  fixed.policy_mode = core::PolicyMode::kFixed;
  EXPECT_DEATH(core::RunBlockCoTraining(ds, splits[0], fixed, ro),
               "policy_mode");
  core::GraphRareOptions no_add;
  no_add.enable_add = false;
  EXPECT_DEATH(core::RunBlockCoTraining(ds, splits[0], no_add, ro),
               "enable_add");
  core::GraphRareOptions no_remove;
  no_remove.enable_remove = false;
  EXPECT_DEATH(core::RunBlockCoTraining(ds, splits[0], no_remove, ro),
               "enable_remove");
}

}  // namespace
}  // namespace graphrare
