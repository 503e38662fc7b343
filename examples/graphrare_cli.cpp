// Command-line runner: train any backbone with or without GraphRARE on any
// registry dataset or dataset file, export telemetry, the optimized graph,
// and a deployable model artifact. Unknown flags are rejected before any
// work starts, and flag values that do not parse or are out of range
// before any training starts, both with exit status 2.
//
// Usage:
//   graphrare_cli [--dataset=cornell|PATH] [--backbone=gcn] [--rare]
//                 [--splits=3] [--iterations=20] [--lambda=1.0]
//                 [--k-max=5] [--d-max=5] [--seed=1] [--lr=0.01]
//                 [--minibatch] [--fanouts=10,10] [--batch-size=256]
//                 [--epochs=100] [--patience=20] [--sample-replace]
//                 [--rl-blocks=4] [--rl-block-fanouts=10,10]
//                 [--rl-block-seeds=64] [--rl-steps=4]
//                 [--rl-partition=independent|locality]
//                 [--rl-prefetch-depth=1] [--rl-producers=1]
//                 [--rl-entropy-refresh] [--csr-reorder=degree|rcm]
//                 [--telemetry=out.csv] [--save-graph=out.graph]
//                 [--save-artifact=model.grare]
//
// --dataset takes a registry name (data::ListDatasets) or, failing that,
// the path of a dataset file in the "# graphrare-dataset v1" format (see
// src/data/io.h). A file is how real graphs, such as the paper's Table II
// datasets, enter the pipeline; nothing is downloaded.
//
// Numeric flags parse strictly: --iterations=2x or --seed=-1 exits 2 and
// names the flag, and so does a value the run options reject (say
// --iterations=0).
//
// --seed is the single master seed: it fans out to the dataset generator,
// splits, entropy candidate sampling, PPO, the neighbor sampler, and the
// env streams through core::DeriveSeeds, so one number pins the whole run.
//
// --rare runs paper Algorithm 1 (core::GraphRareTrainer): it finetunes the
// GNN only when train accuracy improves and scores each graph before
// finetuning on it. --rare --rl-blocks=B runs block-scoped co-training
// instead: each PPO round is an episode of the topology MDP on B
// neighbor-sampled blocks (SparRL-style), finetuning on every step.
// --rl-block-fanouts=full uses whole-graph blocks, so --rl-blocks=1
// --rl-block-fanouts=full is the episodic full-graph MDP, not Algorithm 1:
// the two give different graphs (cornell, --seed=3, other flags default:
// homophily 0.302 -> 0.322 under --rare, 0.302 -> 0.302 here). Its steps
// match the full-graph step bitwise only at dropout 0, since the block
// and full-graph trainers draw dropout from different streams. -1 fanout
// entries mean unlimited fanout. --rl-partition=locality grows BFS seed
// batches so blocks overlap less; --rl-prefetch-depth=N samples N rounds
// of blocks ahead of training on --rl-producers threads (0 = inline, same
// stream either way); --rl-entropy-refresh incrementally re-buckets the
// entropy index from each round's merged edits.
//
// --csr-reorder relabels the dataset's nodes before anything else sees
// them (degree = hubs-first degree sort, rcm = reverse Cuthill-McKee), so
// every CSR built afterwards — adjacency operators and partitioned-block
// matrices — has better row locality. Opt-in: relabelling changes float
// accumulation orders, so metrics match the natural ordering to tolerance
// rather than bitwise.
//
// --save-artifact packages the last split's co-trained backbone plus its
// optimized graph (serve::ModelArtifact); it requires --rare since plain
// baselines train one throwaway model per split. examples/graphrare_serve
// serves the file: exact full-graph inference by default, fanout-bounded
// sampled inference with --fanouts.
//
// Examples:
//   ./build/examples/graphrare_cli --dataset=texas --backbone=sage --rare
//   ./build/examples/graphrare_cli --dataset=cora --backbone=appnp
//   ./build/examples/graphrare_cli --dataset=pubmed --backbone=sage
//       --minibatch --fanouts=10,10 --batch-size=512
//   ./build/examples/graphrare_cli --dataset=pubmed --backbone=sage --rare
//       --rl-blocks=8 --rl-block-fanouts=10,10 --rl-block-seeds=128
//   ./build/examples/graphrare_cli --dataset=cornell --rare
//       --save-artifact=model.grare
//   ./build/examples/graphrare_serve --artifact=model.grare --topk=3

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/graphrare.h"
#include "core/telemetry.h"
#include "data/io.h"
#include "graph/io.h"
#include "graph/reorder.h"

using namespace graphrare;

namespace {

/// Every flag the CLI reads. Anything else on the command line is rejected
/// before any work starts, so a typo never silently falls back to a default
/// run.
const std::set<std::string>& KnownFlags() {
  static const std::set<std::string> known = {
      "backbone", "batch-size", "csr-reorder", "d-max", "dataset", "epochs",
      "fanouts", "iterations", "k-max", "lambda", "lr", "minibatch",
      "patience", "rare", "rl-block-fanouts", "rl-block-seeds", "rl-blocks",
      "rl-entropy-refresh", "rl-partition", "rl-prefetch-depth",
      "rl-producers", "rl-steps", "sample-replace", "save-artifact",
      "save-graph", "seed", "splits", "telemetry",
  };
  return known;
}

/// Minimal --key=value parser over KnownFlags().
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unrecognised argument: %s\n", arg.c_str());
        std::exit(2);
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      const std::string key = arg.substr(0, eq);
      if (KnownFlags().count(key) == 0) {
        std::fprintf(stderr, "unrecognised argument: --%s\n", key.c_str());
        std::exit(2);
      }
      // A bare --flag is boolean.
      values_[key] = eq == std::string::npos ? "1" : arg.substr(eq + 1);
    }
  }

  std::string Get(const std::string& key, const std::string& def) const {
    const auto it = Find(key);
    return it == values_.end() ? def : it->second;
  }
  // Numeric getters parse the whole value strictly; anything else exits 2
  // naming the flag, as an unknown flag does.
  double GetDouble(const std::string& key, double def) const {
    const auto it = Find(key);
    if (it == values_.end()) return def;
    double v = 0.0;
    if (!ParseDouble(it->second, &v)) Invalid(key, "a number");
    return v;
  }
  int GetInt(const std::string& key, int def) const {
    const auto it = Find(key);
    if (it == values_.end()) return def;
    int64_t v = 0;
    if (!ParseInt64(it->second, &v) || v < INT_MIN || v > INT_MAX) {
      Invalid(key, "an integer");
    }
    return static_cast<int>(v);
  }
  uint64_t GetUint64(const std::string& key, uint64_t def) const {
    const auto it = Find(key);
    if (it == values_.end()) return def;
    uint64_t v = 0;
    if (!ParseUint64(it->second, &v)) Invalid(key, "a non-negative integer");
    return v;
  }
  bool GetBool(const std::string& key) const {
    return Find(key) != values_.end();
  }

 private:
  [[noreturn]] void Invalid(const std::string& key, const char* want) const {
    std::fprintf(stderr, "invalid --%s=%s (want %s)\n", key.c_str(),
                 values_.at(key).c_str(), want);
    std::exit(2);
  }

  /// Reading a flag missing from KnownFlags() is a bug in this file: the
  /// constructor would have rejected it on the command line.
  std::map<std::string, std::string>::const_iterator Find(
      const std::string& key) const {
    GR_CHECK(KnownFlags().count(key) != 0) << "unregistered flag --" << key;
    return values_.find(key);
  }

  std::map<std::string, std::string> values_;
};

/// Exits 2 when the run options assembled from the flags are out of range;
/// the message names the offending setting.
void ExitIfInvalid(const Status& s) {
  if (s.ok()) return;
  std::fprintf(stderr, "invalid flag value: %s\n", s.message().c_str());
  std::exit(2);
}

/// --dataset: a registry name, else a dataset file (data/io.h format).
/// Exits 1 naming both lookups when neither works.
data::Dataset LoadDatasetFlag(const std::string& spec, uint64_t seed) {
  auto registry_or = data::MakeDataset(spec, seed);
  if (registry_or.ok()) return std::move(registry_or).value();
  auto file_or = data::LoadDataset(spec);
  if (file_or.ok()) return std::move(file_or).value();
  std::fprintf(stderr,
               "error: --dataset=%s is neither a registry dataset (%s) nor "
               "a loadable dataset file: %s\n",
               spec.c_str(), StrJoin(data::ListDatasets(), ", ").c_str(),
               file_or.status().ToString().c_str());
  std::exit(1);
}

/// Parses "10,10,5" into a fanout vector (-1 entries = unlimited fanout).
std::vector<int64_t> ParseFanouts(const std::string& spec) {
  std::vector<int64_t> fanouts;
  if (!ParseInt64List(spec, &fanouts)) {
    std::fprintf(stderr, "invalid fanout spec: %s\n", spec.c_str());
    std::exit(2);
  }
  for (const int64_t f : fanouts) {
    if (f < 1 && f != -1) {
      std::fprintf(stderr, "invalid fanout spec: %s\n", spec.c_str());
      std::exit(2);
    }
  }
  return fanouts;
}

/// Applies --csr-reorder: relabels the dataset's nodes (graph, feature
/// rows, labels) with a locality-improving permutation before splits or
/// training see it, so every downstream CSR — adjacency operators and the
/// partitioned block path's per-block matrices alike — is built in the
/// reordered id space. Opt-in because relabelling changes the kernels'
/// float accumulation orders: results match the natural ordering to
/// tolerance, not bitwise.
void MaybeReorderDataset(const Flags& flags, data::Dataset* dataset) {
  const std::string spec = flags.Get("csr-reorder", "");
  if (spec.empty()) return;
  graph::ReorderKind kind;
  if (spec == "degree") {
    kind = graph::ReorderKind::kDegreeSort;
  } else if (spec == "rcm") {
    kind = graph::ReorderKind::kRcm;
  } else {
    std::fprintf(stderr, "invalid --csr-reorder: %s (want degree or rcm)\n",
                 spec.c_str());
    std::exit(2);
  }
  const std::vector<int64_t> perm =
      graph::ReorderPermutation(dataset->graph, kind);
  const int64_t n = dataset->graph.num_nodes();
  tensor::Tensor features(n, dataset->features.cols());
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) {
    const int64_t nu = perm[static_cast<size_t>(u)];
    std::copy(dataset->features.row(u),
              dataset->features.row(u) + dataset->features.cols(),
              features.row(nu));
    labels[static_cast<size_t>(nu)] = dataset->labels[static_cast<size_t>(u)];
  }
  dataset->graph = graph::PermuteGraph(dataset->graph, perm);
  dataset->features = std::move(features);
  dataset->labels = std::move(labels);
  std::printf("csr-reorder=%s: relabelled %lld nodes\n", spec.c_str(),
              static_cast<long long>(n));
}

/// Writes the last split's outputs that were asked for: --telemetry CSV,
/// --save-graph, --save-artifact. Returns the process exit code.
int WriteRunOutputs(const Flags& flags, const core::GraphRareResult& run,
                    const data::Dataset& dataset) {
  const std::string telemetry_path = flags.Get("telemetry", "");
  if (!telemetry_path.empty()) {
    const Status s = core::WriteTelemetryCsv(run, telemetry_path);
    if (!s.ok()) {
      std::fprintf(stderr, "telemetry: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("telemetry written to %s\n", telemetry_path.c_str());
  }
  const std::string graph_path = flags.Get("save-graph", "");
  if (!graph_path.empty()) {
    const Status s = graph::SaveGraph(run.best_graph, graph_path);
    if (!s.ok()) {
      std::fprintf(stderr, "save-graph: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("optimized graph written to %s\n", graph_path.c_str());
  }
  const std::string artifact_path = flags.Get("save-artifact", "");
  if (!artifact_path.empty()) {
    auto artifact_or = run.ExportArtifact(dataset);
    const Status s = artifact_or.ok() ? artifact_or->Save(artifact_path)
                                      : artifact_or.status();
    if (!s.ok()) {
      std::fprintf(stderr, "save-artifact: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("model artifact written to %s\n", artifact_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const Flags flags(argc, argv);

  // Every flag is read, parsed and range-checked here, whatever the mode,
  // so a bad value exits 2 before any work starts.
  const std::string dataset_name = flags.Get("dataset", "cornell");
  const std::string backbone_name = flags.Get("backbone", "gcn");
  const int num_splits = flags.GetInt("splits", 3);
  if (num_splits < 1) {
    std::fprintf(stderr, "invalid --splits=%d (want >= 1)\n", num_splits);
    return 2;
  }
  const uint64_t seed = flags.GetUint64("seed", 1);
  // The one master seed: every subsystem seed below derives from it.
  const core::DerivedSeeds seeds = core::DeriveSeeds(seed);
  const float lr = static_cast<float>(flags.GetDouble("lr", 0.01));

  core::MiniBatchOptions mb;
  const std::string fanout_spec = flags.Get("fanouts", "10,10");
  mb.sampler.fanouts = ParseFanouts(fanout_spec);
  mb.sampler.replace = flags.GetBool("sample-replace");
  mb.sampler.seed = seeds.sampler;
  mb.batch_size = flags.GetInt("batch-size", 256);
  mb.max_epochs = flags.GetInt("epochs", 100);
  mb.patience = flags.GetInt("patience", 20);
  ExitIfInvalid(mb.Validate());

  core::GraphRareOptions opts;
  opts.adam.lr = lr;
  opts.iterations = flags.GetInt("iterations", 20);
  opts.entropy.lambda = flags.GetDouble("lambda", 1.0);
  opts.k_max = flags.GetInt("k-max", 5);
  opts.d_max = flags.GetInt("d-max", 5);
  opts.seed = seed;
  ExitIfInvalid(opts.Validate());

  const int rl_blocks = flags.GetInt("rl-blocks", 0);
  core::BlockRolloutOptions rollout;
  rollout.blocks_per_round = rl_blocks;
  const std::string block_fanout_spec = flags.Get("rl-block-fanouts", "10,10");
  rollout.fanouts = block_fanout_spec == "full"
                        ? std::vector<int64_t>{}
                        : ParseFanouts(block_fanout_spec);
  rollout.seeds_per_block = flags.GetInt("rl-block-seeds", 64);
  rollout.sample_replace = flags.GetBool("sample-replace");
  rollout.steps_per_episode = flags.GetInt("rl-steps", 4);
  const std::string partition = flags.Get("rl-partition", "independent");
  if (partition == "locality") {
    rollout.partition = data::PartitionMode::kLocality;
  } else if (partition != "independent") {
    std::fprintf(stderr, "invalid --rl-partition: %s "
                 "(want independent or locality)\n", partition.c_str());
    return 2;
  }
  rollout.prefetch_depth = flags.GetInt("rl-prefetch-depth", 1);
  rollout.num_producers = flags.GetInt("rl-producers", 1);
  rollout.refresh_entropy = flags.GetBool("rl-entropy-refresh");
  // The locality partitioner seed comes from the master seed like every
  // other subsystem (RunBlockCoTraining re-derives it per split, but
  // setting it here keeps direct BlockRolloutRunner uses pinned too).
  rollout.partition_seed = seeds.partition;
  if (rl_blocks != 0) ExitIfInvalid(rollout.Validate());

  // Guarded before any training branch so the flag is never silently
  // dropped: only the --rare paths retain a deployable model.
  if (!flags.Get("save-artifact", "").empty() && !flags.GetBool("rare")) {
    std::fprintf(stderr,
                 "error: --save-artifact requires --rare (baseline runs "
                 "train one throwaway model per split)\n");
    return 2;
  }
  if (flags.GetBool("minibatch") && flags.GetBool("rare")) {
    std::fprintf(stderr,
                 "error: --minibatch and --rare cannot be combined; "
                 "GraphRARE co-training is full-graph only for now\n");
    return 2;
  }

  auto backbone_or = nn::BackboneFromName(backbone_name);
  if (!backbone_or.ok()) {
    std::fprintf(stderr, "error: %s\n", backbone_or.status().ToString().c_str());
    return 1;
  }
  const nn::BackboneKind backbone = *backbone_or;
  opts.backbone = backbone;

  data::Dataset dataset = LoadDatasetFlag(dataset_name, seed);
  MaybeReorderDataset(flags, &dataset);

  data::SplitOptions so;
  so.num_splits = num_splits;
  so.seed = seeds.splits;
  const auto splits = data::MakeSplits(dataset.labels, dataset.num_classes, so);

  std::printf("dataset=%s nodes=%lld edges=%lld H=%.3f backbone=%s\n",
              dataset.name.c_str(),
              static_cast<long long>(dataset.num_nodes()),
              static_cast<long long>(dataset.graph.num_edges()),
              dataset.Homophily(), nn::BackboneName(backbone));

  if (flags.GetBool("minibatch")) {
    core::ExperimentOptions exp;
    exp.num_splits = num_splits;
    exp.adam.lr = lr;
    exp.seed = seed;
    const auto agg =
        core::RunBackboneMiniBatch(dataset, splits, backbone, exp, mb);
    std::printf("minibatch (batch=%lld, fanouts=%s) test accuracy: "
                "%.2f%% (±%.2f) over %d splits\n",
                static_cast<long long>(mb.batch_size), fanout_spec.c_str(),
                100.0 * agg.accuracy.mean, 100.0 * agg.accuracy.stddev,
                num_splits);
    std::printf("seconds/epoch: %.4f\n", agg.seconds_per_epoch);
    return 0;
  }

  if (!flags.GetBool("rare")) {
    core::ExperimentOptions exp;
    exp.num_splits = num_splits;
    exp.adam.lr = lr;
    exp.seed = seed;
    const auto agg = core::RunBackbone(dataset, splits, backbone, exp);
    std::printf("test accuracy: %.2f%% (±%.2f) over %d splits\n",
                100.0 * agg.accuracy.mean, 100.0 * agg.accuracy.stddev,
                num_splits);
    std::printf("seconds/epoch: %.4f\n", agg.seconds_per_epoch);
    return 0;
  }

  if (rl_blocks > 0) {
    const auto agg = core::RunGraphRareBlocks(dataset, splits, opts, rollout);
    std::printf("block co-training (B=%d, fanouts=%s, partition=%s, "
                "prefetch=%d) test accuracy: %.2f%% (±%.2f) over %d splits\n",
                rl_blocks, block_fanout_spec.c_str(), partition.c_str(),
                rollout.prefetch_depth, 100.0 * agg.accuracy.mean,
                100.0 * agg.accuracy.stddev, num_splits);
    std::printf("homophily: %.3f -> %.3f, entropy build %.3fs, "
                "edges %lld -> %lld\n",
                agg.mean_initial_homophily, agg.mean_final_homophily,
                agg.mean_entropy_seconds,
                static_cast<long long>(agg.last_run.initial_edges),
                static_cast<long long>(agg.last_run.final_edges));
    return WriteRunOutputs(flags, agg.last_run, dataset);
  }

  const auto agg = core::RunGraphRare(dataset, splits, opts);
  std::printf("test accuracy: %.2f%% (±%.2f) over %d splits\n",
              100.0 * agg.accuracy.mean, 100.0 * agg.accuracy.stddev,
              num_splits);
  std::printf("homophily: %.3f -> %.3f, entropy build %.3fs\n",
              agg.mean_initial_homophily, agg.mean_final_homophily,
              agg.mean_entropy_seconds);
  return WriteRunOutputs(flags, agg.last_run, dataset);
}
