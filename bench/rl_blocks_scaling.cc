// Block-scoped vs full-graph RL topology optimization scaling. Generates
// synthetic graphs of increasing size and compares one co-training round
// through BlockRolloutRunner on neighbor-sampled blocks (core/
// block_rollout.h) against the same runner on one identity block (B=1,
// empty fanouts): the full-graph episodic MDP, whose observation, rewiring
// and GNN epochs cover the whole adjacency every step.
//
// The full-graph row runs only at the smallest size: beyond it a single
// episode blows the bench's time budget — per-step cost scales with the
// global adjacency, which is precisely what the block scheduler removes —
// so larger sizes run the block path only (the skip is printed and recorded
// in the JSON, not silent).
//
// Quick mode: 2k and 10k nodes. GRARE_BENCH_FULL=1 adds 100k.

#include "bench/bench_util.h"
#include "core/graphrare.h"

namespace graphrare {
namespace bench {
namespace {

data::Dataset MakeScaledDataset(int64_t num_nodes, uint64_t seed) {
  data::GeneratorOptions o;
  o.name = StrFormat("synthetic-%lldk",
                     static_cast<long long>(num_nodes / 1000));
  o.num_nodes = num_nodes;
  o.num_edges = 3 * num_nodes;
  o.num_features = 64;
  o.num_classes = 4;
  o.homophily = 0.6;
  o.feature_signal = 8.0;
  o.feature_density = 0.05;
  o.seed = seed;
  auto result = data::GenerateDataset(o);
  GR_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

entropy::EntropyOptions BenchEntropyOptions() {
  entropy::EntropyOptions eo;
  eo.max_two_hop_candidates = 8;
  eo.num_random_candidates = 4;
  eo.seed = 13;
  return eo;
}

struct PathReport {
  double seconds_per_round = 0.0;
  double entropy_seconds = 0.0;
  double peak_rss_mib = 0.0;
  double mean_reward = 0.0;
  int64_t block_nodes = 0;  ///< nodes touched per round
};

/// One co-training round through BlockRolloutRunner: `blocks` episodes of
/// `steps` env steps on blocks of `seeds_per_block` train seeds sampled
/// with `fanouts` (empty = the identity block over all nodes).
PathReport RunRound(const data::Dataset& ds, const data::Split& split,
                    int steps, int blocks, std::vector<int64_t> fanouts,
                    int64_t seeds_per_block) {
  Stopwatch entropy_watch;
  auto index = std::move(entropy::RelativeEntropyIndex::Build(
                             ds.graph, ds.features, BenchEntropyOptions()))
                   .value();
  PathReport report;
  report.entropy_seconds = entropy_watch.ElapsedSeconds();

  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 32;
  mo.num_classes = ds.num_classes;
  mo.seed = 7;
  auto model = nn::MakeModel(nn::BackboneKind::kSage, mo);
  nn::MiniBatchTrainer::Options to;
  to.adam.lr = 0.01f;
  to.seed = 7;
  nn::MiniBatchTrainer trainer(model.get(), ds.FeaturesCsr(), &ds.labels,
                               to);

  core::BlockRolloutOptions ro;
  ro.blocks_per_round = blocks;
  ro.seeds_per_block = seeds_per_block;
  ro.fanouts = std::move(fanouts);
  ro.steps_per_episode = steps;
  ro.env.gnn_epochs_per_step = 1;
  ro.seed = 21;
  core::BlockRolloutRunner runner(&ds, &split, &trainer, &index, ro);
  rl::PpoOptions po;
  po.steps_per_update = steps;
  po.seed = 11;
  rl::PpoAgent agent(core::kObservationDim, po);

  Stopwatch watch;
  const core::BlockRolloutRunner::RoundStats stats = runner.RunRound(&agent);
  report.seconds_per_round = watch.ElapsedSeconds();
  report.mean_reward = stats.mean_reward;
  report.block_nodes = stats.block_nodes;
  report.peak_rss_mib = PeakRssMiB();
  return report;
}

}  // namespace

int Main() {
  PrintBanner("block-scoped RL topology rollout scaling",
              "beyond-paper: SparRL-style subgraph rollouts (Fig. 3 MDP)");

  std::vector<int64_t> sizes = {2000, 10000};
  if (core::BenchFullScale()) sizes.push_back(100000);
  // Full-graph episodes only below this size; above it one episode's
  // observation/rewiring/training all scale with the whole adjacency and
  // the run would blow the bench's time budget.
  const int64_t full_graph_max_nodes = 2000;
  const int steps = 4;

  PrintRow("nodes",
           {"path", "s/round", "entropy s", "mean R", "peak RSS", "blk nodes"},
           12, 12);
  BenchJson json("rl_blocks_scaling");
  for (const int64_t n : sizes) {
    data::Dataset ds = MakeScaledDataset(n, /*seed=*/5);
    data::SplitOptions so;
    so.num_splits = 1;
    so.seed = 11;
    const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

    // Block path first so its peak-RSS reading is not inflated by the
    // full-graph pass (ru_maxrss is monotonic across the process).
    const PathReport blocks = RunRound(ds, splits[0], steps, /*blocks=*/4,
                                       /*fanouts=*/{10, 10},
                                       /*seeds_per_block=*/64);
    PrintRow(StrFormat("%lld", static_cast<long long>(n)),
             {"blocks", StrFormat("%.3f", blocks.seconds_per_round),
              StrFormat("%.3f", blocks.entropy_seconds),
              StrFormat("%+.4f", blocks.mean_reward),
              StrFormat("%.0f MiB", blocks.peak_rss_mib),
              StrFormat("%lld", static_cast<long long>(blocks.block_nodes))},
             12, 12);
    json.BeginConfig()
        .Field("nodes", n)
        .Field("path", "blocks")
        .Field("steps", steps)
        .Field("seconds_per_round", blocks.seconds_per_round)
        .Field("entropy_seconds", blocks.entropy_seconds)
        .Field("mean_reward", blocks.mean_reward)
        .Field("peak_rss_mib", blocks.peak_rss_mib)
        .Field("block_nodes", blocks.block_nodes);

    if (n <= full_graph_max_nodes) {
      const PathReport full = RunRound(ds, splits[0], steps, /*blocks=*/1,
                                       /*fanouts=*/{},
                                       /*seeds_per_block=*/n);
      PrintRow("", {"full", StrFormat("%.3f", full.seconds_per_round),
                    StrFormat("%.3f", full.entropy_seconds),
                    StrFormat("%+.4f", full.mean_reward),
                    StrFormat("%.0f MiB", full.peak_rss_mib), "-"},
               12, 12);
      json.BeginConfig()
          .Field("nodes", n)
          .Field("path", "full")
          .Field("steps", steps)
          .Field("seconds_per_round", full.seconds_per_round)
          .Field("entropy_seconds", full.entropy_seconds)
          .Field("mean_reward", full.mean_reward)
          .Field("peak_rss_mib", full.peak_rss_mib);
    } else {
      PrintRow("", {"full", "skipped", "-", "-", "-", "-"}, 12, 12);
      std::printf("    (full-graph episodes skipped at %lld nodes: "
                  "per-step observation/rewiring/training scale with the "
                  "whole adjacency)\n",
                  static_cast<long long>(n));
      json.BeginConfig()
          .Field("nodes", n)
          .Field("path", "full")
          .Field("skipped", true);
    }
  }

  json.Write();
  return 0;
}

}  // namespace bench
}  // namespace graphrare

int main() { return graphrare::bench::Main(); }
