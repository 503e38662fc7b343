#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include <sys/resource.h>

#include "bench_stats.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/block_rollout.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/registry.h"
#include "data/sampler.h"
#include "data/splits.h"
#include "loadgen.h"
#include "net/server.h"
#include "replay.h"
#include "serve/artifact.h"
#include "serve/engine.h"
#include "tensor/tensor.h"

namespace perfbench {

namespace gr = graphrare;

namespace {

// ---- Shared helpers --------------------------------------------------------

double PeakRssMiB() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// TensorPool hit ratio over a window of the process's lifetime.
class PoolWindow {
 public:
  PoolWindow() : start_(gr::tensor::TensorPool::GetStats()) {}
  Metric HitRatio() const {
    const auto now = gr::tensor::TensorPool::GetStats();
    const double hits = static_cast<double>(now.hits - start_.hits);
    const double misses = static_cast<double>(now.misses - start_.misses);
    const double total = hits + misses;
    return Metric{total > 0.0 ? hits / total : 0.0, "ratio",
                  static_cast<int64_t>(total), true};
  }

 private:
  gr::tensor::TensorPool::Stats start_;
};

void Note(Report* report, const std::string& line) {
  report->notes.push_back(line);
}

/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupReps = 3;

/// Serving: the p99 latency limit of the ladder rule, the rung time_ms (the
/// median latency) is read at, and the requests that warm the whole path up
/// in set-up.
constexpr double kSloMs = 25.0;
constexpr size_t kNominalRung = 1;
constexpr int kWarmupRequests = 200;

/// The generated heterophilic graph behind cotrain-blocks and both serving
/// workloads: 20k nodes, 80k edges, 256 bag-of-words features, 5 classes,
/// edge homophily 0.2 with partner-class heterophily.
gr::data::Dataset MakeHeteroGraph(uint64_t seed) {
  gr::data::GeneratorOptions go;
  go.name = "hetero20k";
  go.num_nodes = 20000;
  go.num_edges = 80000;
  go.num_features = 256;
  go.num_classes = 5;
  go.homophily = 0.2;
  go.degree_power = 0.5;
  go.partner_affinity = 0.8;
  go.feature_signal = 6.0;
  go.feature_density = 0.05;
  go.feature_fidelity = 0.6;
  go.seed = seed;
  auto ds = gr::data::GenerateDataset(go);
  GR_CHECK(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

gr::data::Split MakeSplit(const gr::data::Dataset& ds, uint64_t seed,
                          double train_fraction = 0.6) {
  gr::data::SplitOptions so;
  so.num_splits = 1;
  so.seed = seed;
  so.train_fraction = train_fraction;
  return gr::data::MakeSplits(ds.labels, ds.num_classes, so)[0];
}

/// Co-training runs on one fixed graph per workload, as the paper runs on
/// fixed datasets; the workload seed draws the split and the co-training
/// master seed (Table II's protocol of random splits).
constexpr uint64_t kCotrainGraphSeed = 1;

/// cotrain-blocks trains on 30% of the nodes, which keeps one run short
/// enough to repeat within a measurement window.
constexpr double kBlocksTrainFraction = 0.3;

/// cotrain-full: Algorithm 1 with a GCN backbone, five iterations with two
/// PPO updates. Patience equals the epoch budget and finetune_epochs stays
/// below the early-stop window (3), so the epoch counts are fixed and the
/// traced run can attribute time. A repeat takes about 0.7 s, short enough
/// that a run holds dozens and the fastest of them is a steady figure.
/// cotrain-blocks: SAGE backbone, one mini-batch pretraining epoch, two
/// rollout rounds ending in one PPO update of two epochs.
gr::core::GraphRareOptions CotrainOptions(bool blocks, uint64_t seed) {
  gr::core::GraphRareOptions o;
  if (!blocks) {
    o.backbone = gr::nn::BackboneKind::kGcn;
    o.iterations = 5;
    o.pretrain_epochs = 8;
    o.pretrain_patience = 8;
    o.finetune_epochs = 1;
    o.ppo.steps_per_update = 2;
  } else {
    o.backbone = gr::nn::BackboneKind::kSage;
    o.iterations = 2;
    o.pretrain_epochs = 1;
    o.pretrain_patience = 1;
    o.ppo.steps_per_update = 4;
    o.ppo.update_epochs = 2;
  }
  o.seed = seed;
  return o;
}

gr::core::BlockRolloutOptions BlockRollout() {
  gr::core::BlockRolloutOptions r;
  r.blocks_per_round = 4;
  r.seeds_per_block = 128;
  r.fanouts = {10, 10};
  r.steps_per_episode = 2;
  r.prefetch_depth = 1;
  return r;
}

/// Marks the per-layer metrics each workload's own path calls; the rest of
/// the traced run's metrics come from replays alone.
void MarkPaths(const std::string& workload, MetricMap* layers) {
  static const std::set<std::string> kCommon = {
      "data.generate_s", "tensor.pool_hit_ratio", "core.unaccounted_frac",
      "trace.overhead_s"};
  static const std::map<std::string, std::set<std::string>> kPaths = {
      {"cotrain-full",
       {"entropy.build_s", "nn.train_epoch_ms", "nn.eval_ms",
        "core.observation_ms", "core.rewire_ms", "rl.act_ms",
        "rl.update_ms"}},
      {"cotrain-blocks",
       {"entropy.build_s", "entropy.restrict_ms", "data.next_round_ms",
        "nn.train_batch_ms", "nn.eval_ms", "core.round_ms", "core.merge_ms",
        "core.conflict_ratio", "data.block_nodes", "core.observation_ms",
        "core.rewire_ms", "rl.act_ms", "rl.update_ms"}},
      {"serve-sampled",
       {"serve.artifact_load_ms", "serve.engine_build_ms",
        "serve.artifact_bytes", "serve.predict_batch_ms",
        "data.sample_block_us", "net.parse_us", "net.json_decode_us",
        "net.encode_us", "net.server_ms_p50", "net.queue_delay_ms_p50",
        "net.queue_delay_ms_p99", "net.batch_size_mean", "net.shed",
        "net.rejected"}},
      {"serve-lookup-reload",
       {"serve.artifact_load_ms", "serve.engine_build_ms",
        "serve.artifact_bytes", "serve.predict_batch_ms", "net.parse_us",
        "net.json_decode_us", "net.encode_us", "net.server_ms_p50",
        "net.queue_delay_ms_p50", "net.queue_delay_ms_p99",
        "net.batch_size_mean", "net.shed", "net.rejected"}},
  };
  const std::set<std::string>& path = kPaths.at(workload);
  for (auto& [name, metric] : *layers) {
    metric.on_path = kCommon.count(name) > 0 || path.count(name) > 0;
  }
}

// ---- Serving stack ---------------------------------------------------------

/// An HttpServer over an engine handle with its reactor on a thread.
class ServingStack {
 public:
  explicit ServingStack(std::shared_ptr<gr::serve::EngineHandle> handle) {
    gr::net::HttpServerOptions options;
    options.slo_ms = kSloMs;
    server_ = std::make_unique<gr::net::HttpServer>(std::move(handle),
                                                    nullptr, options);
    GR_CHECK_OK(server_->Start());
    loop_ = std::thread([this] { server_->Run(); });
  }
  ~ServingStack() {
    server_->Shutdown();
    loop_.join();
  }
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  gr::net::HttpServer& server() { return *server_; }

 private:
  std::unique_ptr<gr::net::HttpServer> server_;
  std::thread loop_;
};

/// The server's own counters, as per-layer metrics.
void ServerCounters(const gr::net::HttpServer& server, MetricMap* layers) {
  const gr::net::BatcherStats b = server.batcher().Stats();
  (*layers)["net.queue_delay_ms_p50"] =
      Metric{b.queue_delay_ms.p50, "ms", b.queue_delay_ms.count, true};
  (*layers)["net.queue_delay_ms_p99"] =
      Metric{b.queue_delay_ms.p99, "ms", b.queue_delay_ms.count, true};
  (*layers)["net.batch_size_mean"] =
      Metric{b.batches > 0 ? static_cast<double>(b.batched_requests) /
                                 static_cast<double>(b.batches)
                           : 0.0,
             "count", b.batches, true};
  (*layers)["net.shed"] = Metric{static_cast<double>(b.shed), "count", 1, true};
  (*layers)["net.rejected"] =
      Metric{static_cast<double>(b.rejected), "count", 1, true};
  for (const gr::net::RouteStats& r : server.AllRouteStats()) {
    if (r.route == "/v1/predict") {
      (*layers)["net.server_ms_p50"] =
          Metric{r.latency_ms.p50, "ms", r.latency_ms.count, true};
    }
  }
}

/// Serving counters for a workload whose own path has no server: a short
/// open-loop burst of `requests` against the artifact.
void ServeBurst(const std::string& artifact_path,
                const gr::serve::EngineOptions& engine_options,
                const std::vector<std::vector<int64_t>>& requests,
                uint64_t seed, MetricMap* layers) {
  auto engine = gr::serve::InferenceEngine::LoadFrom(artifact_path,
                                                     engine_options);
  GR_CHECK(engine.ok()) << engine.status().ToString();
  auto handle = std::make_shared<gr::serve::EngineHandle>(
      std::make_shared<const gr::serve::InferenceEngine>(
          std::move(engine).value()));
  ServingStack stack(handle);
  {
    ClientOptions co;
    co.port = stack.server().port();
    LoadClient client(co);
    GR_CHECK_OK(client.Connect());
    const std::vector<double> schedule = PoissonArrivals(200.0, 1.0, seed);
    std::vector<std::string> wires;
    for (size_t i = 0; i < schedule.size(); ++i) {
      wires.push_back(PredictWire(requests[i % requests.size()]));
    }
    client.Run(wires, schedule);
  }
  ServerCounters(stack.server(), layers);
}

// ---- Co-training workloads -------------------------------------------------

struct CotrainUnit {
  double entropy_s = 0.0;
  double cotrain_s = 0.0;
  double test_acc = 0.0;
  std::string digest;
  /// Per-iteration train accuracy (cotrain-full): replays the finetune
  /// gate's count for time attribution.
  std::vector<double> train_acc_history;
  std::shared_ptr<gr::serve::ModelArtifact> artifact;  ///< traced pass only
};

CotrainUnit RunCotrainOnce(bool blocks, const gr::core::GraphRareOptions& o,
                           const gr::data::Dataset& ds,
                           const gr::data::Split& split, bool export_model) {
  CotrainUnit unit;
  Digest digest;
  if (!blocks) {
    gr::core::GraphRareTrainer trainer(&ds, o);
    const gr::core::GraphRareResult r = trainer.Run(split);
    unit.entropy_s = r.entropy_build_seconds;
    unit.cotrain_s = r.train_seconds;
    unit.test_acc = r.test_accuracy;
    unit.train_acc_history = r.train_acc_history;
    digest.AddDoubles(r.reward_history);
    digest.AddDoubles(r.val_acc_history);
    digest.AddDoubles(r.homophily_history);
    digest.AddDoubles(r.train_acc_history);
    digest.AddEdges(r.best_graph.edges());
    digest.AddDouble(r.final_homophily);
    digest.AddDouble(r.test_accuracy);
    if (export_model) {
      auto a = r.ExportArtifact(ds);
      GR_CHECK(a.ok()) << a.status().ToString();
      unit.artifact =
          std::make_shared<gr::serve::ModelArtifact>(std::move(a).value());
    }
  } else {
    const gr::core::BlockCoTrainResult r = gr::core::RunBlockCoTraining(
        ds, split, o, BlockRollout());
    unit.entropy_s = r.entropy_build_seconds;
    unit.cotrain_s = r.train_seconds;
    unit.test_acc = r.test_accuracy;
    digest.AddDoubles(r.reward_history);
    digest.AddDoubles(r.val_acc_history);
    for (const auto& t : r.round_telemetry) {
      digest.AddU64(static_cast<uint64_t>(t.block_nodes));
      digest.AddU64(static_cast<uint64_t>(t.conflicts.nodes_recorded));
      digest.AddU64(static_cast<uint64_t>(t.conflicts.conflict_nodes));
      digest.AddU64(static_cast<uint64_t>(t.conflicts.overwrites));
      digest.AddU64(
          static_cast<uint64_t>(t.conflicts.cross_round_overwrites));
    }
    digest.AddEdges(r.best_graph.edges());
    digest.AddDouble(r.best_graph.EdgeHomophily(ds.labels));
    digest.AddU64(static_cast<uint64_t>(r.env_steps));
    digest.AddDouble(r.test_accuracy);
    if (export_model) {
      auto a = r.ExportArtifact(ds);
      GR_CHECK(a.ok()) << a.status().ToString();
      unit.artifact =
          std::make_shared<gr::serve::ModelArtifact>(std::move(a).value());
    }
  }
  unit.digest = digest.Hex();
  return unit;
}

/// Set-up warm-up: a throwaway backbone of the workload's architecture
/// trains and evaluates on G_0, which fills the tensor pool and builds
/// G_0's lazily cached graph operators before timing starts.
void WarmUpCotrain(bool blocks, const gr::core::GraphRareOptions& o,
                   const gr::data::Dataset& ds, const gr::data::Split& split) {
  auto model = gr::nn::MakeModel(o.backbone, ModelOptionsFor(o, ds));
  if (!blocks) {
    gr::nn::ClassifierTrainer::Options to;
    to.adam = o.adam;
    gr::nn::ClassifierTrainer trainer(
        model.get(), gr::nn::LayerInput::Sparse(ds.FeaturesCsr()),
        &ds.labels, to);
    for (int e = 0; e < 2; ++e) trainer.TrainEpoch(ds.graph, split.train);
    trainer.Evaluate(ds.graph, split.val);
    return;
  }
  gr::nn::MiniBatchTrainer::Options to;
  to.adam = o.adam;
  gr::nn::MiniBatchTrainer trainer(model.get(), ds.FeaturesCsr(), &ds.labels,
                                   to);
  gr::data::SamplerOptions so;
  so.fanouts = BlockRollout().fanouts;
  gr::data::NeighborSampler sampler(&ds.graph, so);
  gr::Rng rng(1);
  const auto batches = gr::data::NeighborSampler::MakeBatches(
      split.train, BlockRollout().seeds_per_block, true, &rng);
  for (size_t b = 0; b < 4 && b < batches.size(); ++b) {
    trainer.TrainBatch(sampler.SampleBlock(batches[b]));
  }
  trainer.Evaluate(ds.graph, split.val);
}

/// Share of a co-training run's wall time (after the entropy build) that
/// the replayed layer calls, multiplied by how often the run makes them,
/// do not cover.
double CotrainUnaccounted(bool blocks, const gr::core::GraphRareOptions& o,
                          const gr::data::Split& split,
                          const std::vector<double>& train_acc_history,
                          double cotrain_ms, const MetricMap& l) {
  auto v = [&l](const char* name) { return l.at(name).value; };
  double accounted = 0.0;
  if (!blocks) {
    // Finetune gate of Algorithm 1 lines 10-13 (>= the running max).
    int gated = 0;
    double max_acc = 0.0;
    for (const double acc : train_acc_history) {
      if (acc >= max_acc) {
        max_acc = acc;
        ++gated;
      }
    }
    const int epochs = o.pretrain_epochs + gated * o.finetune_epochs;
    const int iters = o.iterations;
    const int updates = (iters - 1) / o.ppo.steps_per_update;
    accounted = epochs * (v("nn.train_epoch_ms") + v("nn.eval_ms")) +
                iters * (2 * v("nn.eval_ms") + v("core.observation_ms") +
                         v("rl.act_ms") + v("core.rewire_ms")) +
                updates * v("rl.update_ms") + 4 * v("nn.eval_ms");
  } else {
    const gr::core::BlockRolloutOptions r = BlockRollout();
    const double batches =
        std::ceil(static_cast<double>(split.train.size()) /
                  static_cast<double>(r.seeds_per_block));
    const double sample_ms = v("data.next_round_ms") / r.blocks_per_round;
    const int updates =
        o.iterations * r.steps_per_episode / o.ppo.steps_per_update;
    accounted =
        o.pretrain_epochs *
            (batches * (sample_ms + v("nn.train_batch_ms")) +
             v("nn.eval_ms")) +
        o.iterations * (v("core.round_ms") + v("core.merge_ms") +
                        v("nn.eval_ms")) +
        updates * v("rl.update_ms") + 2 * v("nn.eval_ms");
  }
  return 1.0 - accounted / cotrain_ms;
}

Report RunCotrain(const RunArgs& args, bool blocks) {
  Report report;
  const gr::core::GraphRareOptions options = CotrainOptions(blocks, args.seed);
  // Whole runs repeat on the same inputs until the window closes, and at
  // least this often: the statistic needs samples, the digest repeats.
  const size_t min_repeats = blocks ? 3 : 8;

  // --- Set-up: generate the graph and split, warm up. ---
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<gr::data::Dataset> ds;
  gr::data::Split split;
  for (int r = 0; r < kSetupReps; ++r) {
    const gr::Stopwatch setup;
    ds = std::make_unique<gr::data::Dataset>(
        blocks ? MakeHeteroGraph(kCotrainGraphSeed)
               : gr::data::MakeDataset("chameleon", kCotrainGraphSeed).value());
    ds->FeaturesCsr();
    split = MakeSplit(*ds, args.seed,
                      blocks ? kBlocksTrainFraction : 0.6);
    generate_s.push_back(setup.ElapsedSeconds());
    WarmUpCotrain(blocks, options, *ds, split);
    setup_s.push_back(setup.ElapsedSeconds());
  }

  // --- Timed region: whole co-training runs. ---
  const PoolWindow pool;
  std::vector<CotrainUnit> units;
  const gr::Stopwatch window;
  while (units.size() < min_repeats ||
         (window.ElapsedSeconds() < args.seconds && units.size() < 256)) {
    units.push_back(RunCotrainOnce(blocks, options, *ds, split, args.trace));
  }
  const Metric pool_hits = pool.HitRatio();

  std::vector<double> entropy_s, cotrain_ms;
  const CotrainUnit& first = units[0];
  bool equal = true;
  for (const CotrainUnit& u : units) {
    entropy_s.push_back(u.entropy_s);
    cotrain_ms.push_back(u.cotrain_s * 1e3);
    equal = equal && u.digest == first.digest && u.test_acc == first.test_acc;
  }
  if (!equal || !(first.test_acc > 0.0 && first.test_acc <= 1.0)) {
    report.correct = false;
  }
  Note(&report,
       gr::StrFormat("dataset %s: %lld nodes, %lld edges, %lld features, "
                     "homophily %.3f; split seed %llu, %zu train nodes",
                     ds->name.c_str(), static_cast<long long>(ds->num_nodes()),
                     static_cast<long long>(ds->graph.num_edges()),
                     static_cast<long long>(ds->num_features()),
                     ds->Homophily(), static_cast<unsigned long long>(args.seed),
                     split.train.size()));
  Note(&report,
       gr::StrFormat("digest %s (equal over %zu repeats: %s) of the reward, "
                     "validation-accuracy and homophily histories, the best "
                     "graph's edges and test_acc",
                     first.digest.c_str(), units.size(), equal ? "yes" : "NO"));
  const int64_t n = static_cast<int64_t>(cotrain_ms.size());
  report.attempted = n;
  report.failed = 0;
  const Quantile p50 = QuantileOf(cotrain_ms, 0.5);
  const Quantile p99 = QuantileOf(cotrain_ms, 0.99);
  const double entropy_min_s =
      *std::min_element(entropy_s.begin(), entropy_s.end());
  const double cotrain_min_ms =
      *std::min_element(cotrain_ms.begin(), cotrain_ms.end());
  Note(&report, gr::StrFormat("entropy_build_s = %.6f s (median, n=%lld; "
                              "fastest %.6f s)",
                              MedianOf(entropy_s), static_cast<long long>(n),
                              entropy_min_s));
  Note(&report, gr::StrFormat("cotrain_s = %.6f s (median, n=%lld; p99 "
                              "%.6f s, %lld beyond; fastest %.6f s)",
                              p50.value / 1e3, static_cast<long long>(n),
                              p99.value / 1e3,
                              static_cast<long long>(p99.beyond),
                              cotrain_min_ms / 1e3));
  Note(&report, gr::StrFormat("test_acc = %.6f (n=1; equal over every repeat)",
                              first.test_acc));
  std::string samples;
  for (size_t i = 0; i < units.size(); ++i) {
    samples += gr::StrFormat(" %.0f/%.0f", entropy_s[i] * 1e3, cotrain_ms[i]);
  }
  Note(&report, "entropy/cotrain ms per repeat, in run order:" + samples);

  if (!args.trace) {
    // A shared host slows cache-bound code by up to 1.6x for stretches of
    // seconds to minutes. A run's repeats nearly always include some outside
    // such a stretch, so their fastest is steady where the median follows
    // the host.
    MetricMap& m = report.metrics;
    m["setup_s"] = Metric{MedianOf(setup_s), "s", kSetupReps};
    m["peak_rss_mib"] = Metric{PeakRssMiB(), "MiB", 1};
    m["prep_s"] = Metric{entropy_min_s, "s", n};
    m["time_ms"] = Metric{cotrain_min_ms, "ms", n};
    m["goodput"] =
        Metric{options.iterations / (cotrain_min_ms / 1e3), "1/s", n};
    return report;
  }

  // --- Traced run: counters of the timed region, then layer replays. ---
  const gr::Stopwatch replay_watch;
  MetricMap& layers = report.metrics;
  layers["data.generate_s"] =
      Metric{MedianOf(generate_s), "s",
             static_cast<int64_t>(generate_s.size())};
  layers["tensor.pool_hit_ratio"] = pool_hits;
  const CotrainUnit& last = units.back();
  const std::string artifact_path = args.work_dir + "/cotrain.grare";
  GR_CHECK_OK(last.artifact->Save(artifact_path));

  LayerInputs in;
  in.dataset = ds.get();
  in.split = &split;
  in.rare = options;
  in.rollout = BlockRollout();
  in.artifact_path = artifact_path;
  if (blocks) in.engine.fanouts = {10, 10};
  in.requests = ZipfRequests(ds->num_nodes(), 64, blocks ? 16 : 1,
                             args.seed ^ 0xC0FFEEULL);
  ReplayLayers(in, &layers);
  ServeBurst(artifact_path, in.engine, in.requests, args.seed, &layers);
  layers["core.unaccounted_frac"] =
      Metric{CotrainUnaccounted(blocks, options, split,
                                last.train_acc_history, p50.value, layers),
             "ratio", n};
  layers["trace.overhead_s"] =
      Metric{replay_watch.ElapsedSeconds(), "s", 1};
  MarkPaths(args.workload, &layers);
  std::remove(artifact_path.c_str());
  return report;
}

// ---- Serving workloads -----------------------------------------------------

struct ServeSpec {
  bool sampled = true;
  int ids_per_request = 1;
  /// Pipelined connections. The sampled workload uses one, so the server
  /// admits requests in send order and each response's arrival sequence
  /// number (its sampling seed) is known exactly.
  int connections = 1;
  /// Fixed absolute offered rates (requests/s), lowest first.
  std::vector<double> ladder_qps;
  double reload_every_s = 0.0;
};

/// serve-sampled's prep_s is the median of this many cold starts per rung.
constexpr int kColdStartsPerRung = 4;

ServeSpec SpecFor(const std::string& workload) {
  ServeSpec s;
  if (workload == "serve-sampled") {
    s.sampled = true;
    s.ids_per_request = 16;
    s.connections = 1;
    s.ladder_qps = {200, 400, 600, 800};
  } else {
    s.sampled = false;
    s.ids_per_request = 1;
    s.connections = 4;
    s.ladder_qps = {1000, 2000, 3000, 4000};
    s.reload_every_s = 1.0;
  }
  return s;
}

/// Everything a serving run holds between set-up and teardown. Members
/// are destroyed in reverse order: client, then server, then engines.
struct ServeState {
  std::unique_ptr<gr::data::Dataset> ds;
  gr::data::Split split;
  std::string path_a, path_b;
  gr::serve::EngineOptions engine_options;
  std::shared_ptr<gr::serve::EngineHandle> handle;
  std::unique_ptr<ServingStack> stack;
  std::unique_ptr<LoadClient> client;
  /// Every predict request sent so far and its outcome, in send order.
  std::vector<std::vector<int64_t>> sent;
  std::vector<Outcome> outcomes;
};

/// Trains a SAGE backbone for `epochs` full-graph epochs and packages it
/// with the graph as an artifact file.
void SaveTrainedArtifact(const gr::data::Dataset& ds,
                         const gr::data::Split& split, int epochs,
                         uint64_t seed, const std::string& path) {
  const gr::core::GraphRareOptions o = CotrainOptions(/*blocks=*/true, seed);
  const gr::nn::ModelOptions mo = ModelOptionsFor(o, ds);
  auto model = gr::nn::MakeModel(gr::nn::BackboneKind::kSage, mo);
  gr::nn::ClassifierTrainer::Options to;
  to.adam = o.adam;
  to.seed = seed;
  gr::nn::ClassifierTrainer trainer(
      model.get(), gr::nn::LayerInput::Sparse(ds.FeaturesCsr()), &ds.labels,
      to);
  for (int e = 0; e < epochs; ++e) trainer.TrainEpoch(ds.graph, split.train);
  auto artifact = gr::core::PackageArtifact(
      *model, gr::nn::BackboneKind::kSage, mo, seed, ds.graph, ds);
  GR_CHECK(artifact.ok()) << artifact.status().ToString();
  GR_CHECK_OK(artifact->Save(path));
}

/// Sends `requests` open-loop at `rate` and appends them to the state's
/// log.
RungRun SendRung(ServeState* st, const std::vector<std::vector<int64_t>>& reqs,
                 const std::vector<double>& schedule) {
  std::vector<std::string> wires;
  wires.reserve(reqs.size());
  for (const auto& r : reqs) wires.push_back(PredictWire(r));
  RungRun run = st->client->Run(wires, schedule);
  st->sent.insert(st->sent.end(), reqs.begin(), reqs.end());
  st->outcomes.insert(st->outcomes.end(), run.outcomes.begin(),
                      run.outcomes.end());
  return run;
}

void SetupServe(const ServeSpec& spec, const RunArgs& args, ServeState* st,
                double* generate_s) {
  const gr::Stopwatch gen;
  st->ds = std::make_unique<gr::data::Dataset>(MakeHeteroGraph(args.seed));
  st->ds->FeaturesCsr();
  st->split = MakeSplit(*st->ds, args.seed);
  *generate_s = gen.ElapsedSeconds();

  st->path_a = args.work_dir + "/serve_a.grare";
  st->path_b = args.work_dir + "/serve_b.grare";
  SaveTrainedArtifact(*st->ds, st->split, 3, 7, st->path_a);
  if (spec.reload_every_s > 0.0) {
    SaveTrainedArtifact(*st->ds, st->split, 4, 8, st->path_b);
  }
  if (spec.sampled) st->engine_options.fanouts = {10, 10};
  auto engine =
      gr::serve::InferenceEngine::LoadFrom(st->path_a, st->engine_options);
  GR_CHECK(engine.ok()) << engine.status().ToString();
  st->handle = std::make_shared<gr::serve::EngineHandle>(
      std::make_shared<const gr::serve::InferenceEngine>(
          std::move(engine).value()));
  st->stack = std::make_unique<ServingStack>(st->handle);

  ClientOptions co;
  co.port = st->stack->server().port();
  co.connections = spec.connections;
  // A few reloads per rung in short runs too.
  co.reload_every_s = std::min(
      spec.reload_every_s,
      args.seconds / static_cast<double>(spec.ladder_qps.size()) / 4.0);
  co.reload_paths = {st->path_b, st->path_a};
  co.reload_engine_ids = {1, 0};
  st->client = std::make_unique<LoadClient>(co);
  GR_CHECK_OK(st->client->Connect());

  // Warm-up through the whole path at the nominal rate (pool fill, socket
  // buffers, batcher workers, OpenMP team).
  const double rate = spec.ladder_qps[kNominalRung];
  std::vector<double> schedule(static_cast<size_t>(kWarmupRequests));
  for (size_t i = 0; i < schedule.size(); ++i) {
    schedule[i] = static_cast<double>(i) / rate;
  }
  SendRung(st,
           ZipfRequests(st->ds->num_nodes(), kWarmupRequests,
                        spec.ids_per_request, args.seed ^ 0x3A3AULL),
           schedule);
}

/// Checks every 200 body against the direct engine answer. Returns one
/// flag per logged outcome, set where the body is wrong; `verified` counts
/// bodies checked.
std::vector<char> VerifyServe(const ServeSpec& spec, const ServeState& st,
                              int64_t* verified) {
  std::vector<char> wrong(st.outcomes.size(), 0);
  *verified = 0;
  if (spec.sampled) {
    // One pipelined connection: the server admits requests in send order,
    // so arrival sequence numbers follow the log. A 503 is an admission
    // refusal and takes no number; after an unanswered request the count
    // is unknown and checking stops.
    std::vector<std::vector<int64_t>> requests;
    std::vector<uint64_t> seqs;
    std::vector<size_t> index;
    uint64_t seq = 0;
    for (size_t i = 0; i < st.outcomes.size(); ++i) {
      const int status = st.outcomes[i].status;
      if (status == 0) break;
      if (status == 503) continue;
      if (status == 200) {
        requests.push_back(st.sent[i]);
        seqs.push_back(seq);
        index.push_back(i);
      }
      ++seq;
    }
    auto engine = gr::serve::InferenceEngine::LoadFrom(st.path_a,
                                                       st.engine_options);
    GR_CHECK(engine.ok());
    auto expected = engine->PredictBatchWithSeeds(requests, seqs);
    GR_CHECK(expected.ok()) << expected.status().ToString();
    for (size_t k = 0; k < index.size(); ++k) {
      const std::string body = gr::net::PredictionsToJson((*expected)[k]);
      wrong[index[k]] = body != st.outcomes[index[k]].body;
      ++*verified;
    }
    return wrong;
  }
  // Full-graph lookups ignore the sequence number; the answer depends on
  // which engine was live (0 = artifact A, 1 = artifact B).
  std::vector<std::unique_ptr<gr::serve::InferenceEngine>> engines;
  for (const std::string* path : {&st.path_a, &st.path_b}) {
    auto e = gr::serve::InferenceEngine::LoadFrom(*path, st.engine_options);
    engines.push_back(e.ok() ? std::make_unique<gr::serve::InferenceEngine>(
                                   std::move(e).value())
                             : nullptr);
  }
  std::unordered_map<int64_t, std::string> cache[2];
  auto expected = [&](int e, const std::vector<int64_t>& ids)
      -> const std::string& {
    GR_CHECK(engines[static_cast<size_t>(e)] != nullptr);
    auto& slot = cache[e][ids[0]];
    if (slot.empty()) {
      auto preds = engines[static_cast<size_t>(e)]->Predict(ids);
      GR_CHECK(preds.ok());
      slot = gr::net::PredictionsToJson(preds.value());
    }
    return slot;
  };
  for (size_t i = 0; i < st.outcomes.size(); ++i) {
    const Outcome& o = st.outcomes[i];
    if (o.status != 200) continue;
    ++*verified;
    const bool ok =
        o.body == expected(o.engine, st.sent[i]) ||
        (o.engine_ambiguous && o.body == expected(1 - o.engine, st.sent[i]));
    wrong[i] = !ok;
  }
  return wrong;
}

Report RunServe(const RunArgs& args) {
  const ServeSpec spec = SpecFor(args.workload);
  Report report;

  // --- Set-up: data, artifacts, engine, server, warm-up. ---
  std::vector<double> setup_s, generate_s;
  auto st = std::make_unique<ServeState>();
  for (int r = 0; r < kSetupReps; ++r) {
    st = std::make_unique<ServeState>();  // tears the previous one down
    const gr::Stopwatch setup;
    double gen = 0.0;
    SetupServe(spec, args, st.get(), &gen);
    generate_s.push_back(gen);
    setup_s.push_back(setup.ElapsedSeconds());
  }
  const size_t warmup = st->outcomes.size();

  // --- Timed region. ---
  const PoolWindow pool;
  std::vector<double> cold_start_s;
  const double rung_s =
      args.seconds / static_cast<double>(spec.ladder_qps.size());
  std::vector<RungRun> runs;
  std::vector<size_t> rung_begin;
  for (size_t k = 0; k < spec.ladder_qps.size(); ++k) {
    // Cold starts (artifact read, CRC, parse, model rebuild, engine) take
    // turns with the rungs, so they sample the whole window.
    for (int r = 0; spec.sampled && r < kColdStartsPerRung; ++r) {
      const gr::Stopwatch w;
      GR_CHECK(gr::serve::InferenceEngine::LoadFrom(st->path_a,
                                                    st->engine_options)
                   .ok());
      cold_start_s.push_back(w.ElapsedSeconds());
    }
    const std::vector<double> schedule =
        PoissonArrivals(spec.ladder_qps[k], rung_s, args.seed * 1000 + k);
    const auto requests =
        ZipfRequests(st->ds->num_nodes(),
                     static_cast<int64_t>(schedule.size()),
                     spec.ids_per_request, args.seed * 7919 + k);
    rung_begin.push_back(st->outcomes.size());
    runs.push_back(SendRung(st.get(), requests, schedule));
  }
  const Metric pool_hits = pool.HitRatio();

  // --- Correctness: every 200 body against the direct engine answer. ---
  int64_t verified = 0;
  const std::vector<char> wrong = VerifyServe(spec, *st, &verified);
  int64_t wrong_total = 0;
  for (const char w : wrong) wrong_total += w;
  if (wrong_total > 0 || verified == 0) report.correct = false;

  // --- Per-rung summaries and the ladder. ---
  std::vector<RungSummary> rungs;
  std::vector<double> reload_ms;
  int64_t reload_failed = 0;
  int64_t attempted = 0, failed = 0;
  for (size_t k = 0; k < runs.size(); ++k) {
    RungSummary s;
    s.offered_qps = spec.ladder_qps[k];
    s.duration_s = rung_s;
    std::vector<double> lat, late;
    for (size_t i = 0; i < runs[k].outcomes.size(); ++i) {
      const Outcome& o = runs[k].outcomes[i];
      ++s.attempted;
      late.push_back(o.lateness_ms);
      s.lateness_max_ms = std::max(s.lateness_max_ms, o.lateness_ms);
      if (o.status != 200) {
        ++s.failed;
        continue;
      }
      lat.push_back(o.latency_ms);
      if (wrong[rung_begin[k] + i]) {
        ++s.wrong;
      } else if (o.latency_ms <= kSloMs) {
        ++s.within_slo;
      }
    }
    s.p50_ms = QuantileOf(lat, 0.5);
    s.p99_ms = QuantileOf(lat, 0.99);
    s.lateness_p99_ms = QuantileOf(late, 0.99);
    s.drain_ms = runs[k].drain_ms;
    attempted += s.attempted;
    failed += s.failed;
    for (const ReloadOutcome& r : runs[k].reloads) {
      if (r.status == 200) {
        reload_ms.push_back(r.round_trip_ms);
      } else {
        ++reload_failed;
      }
    }
    rungs.push_back(s);
  }

  const int top = GoodputRung(rungs, kSloMs);
  const RungSummary& at = rungs[static_cast<size_t>(top >= 0 ? top : 0)];
  const double goodput = static_cast<double>(at.within_slo) / at.duration_s;
  const RungSummary& nominal = rungs[kNominalRung];
  const RungSummary& peak = rungs.back();
  report.attempted = attempted + static_cast<int64_t>(reload_ms.size()) +
                     reload_failed;
  report.failed = failed + reload_failed;

  for (const RungSummary& s : rungs) {
    Note(&report,
         gr::StrFormat(
             "rung %6.0f req/s: sent %lld, failed %lld, p50 %.3f ms, p99 "
             "%.3f ms (n=%lld, %lld beyond), drain %.3f ms, generator late "
             "p99 %.3f ms max %.3f ms -> %s",
             s.offered_qps, static_cast<long long>(s.attempted),
             static_cast<long long>(s.failed), s.p50_ms.value,
             s.p99_ms.value, static_cast<long long>(s.p99_ms.count),
             static_cast<long long>(s.p99_ms.beyond), s.drain_ms,
             s.lateness_p99_ms.value, s.lateness_max_ms,
             RungHolds(s, kSloMs) ? "holds" : "MISSES SLO"));
  }
  Note(&report, gr::StrFormat("p50_ms = %.4f ms, p99_ms = %.4f ms at the "
                              "nominal %.0f req/s (n=%lld)",
                              nominal.p50_ms.value, nominal.p99_ms.value,
                              nominal.offered_qps,
                              static_cast<long long>(nominal.p50_ms.count)));
  Note(&report, gr::StrFormat("p99_ms_peak = %.4f ms at %.0f req/s (n=%lld)",
                              peak.p99_ms.value, peak.offered_qps,
                              static_cast<long long>(peak.p99_ms.count)));
  Note(&report,
       gr::StrFormat("goodput_qps = %.3f req/s (%s; SLO p99 <= %.0f ms)",
                     goodput,
                     top >= 0 ? gr::StrFormat("highest holding rung %.0f "
                                              "req/s",
                                              rungs[static_cast<size_t>(top)]
                                                  .offered_qps)
                                    .c_str()
                              : "no rung holds; lowest rung reported",
                     kSloMs));
  Note(&report, gr::StrFormat("fail_frac = %.6f (%lld of %lld)",
                              attempted > 0 ? static_cast<double>(failed) /
                                                  static_cast<double>(attempted)
                                            : 0.0,
                              static_cast<long long>(failed),
                              static_cast<long long>(attempted)));
  Note(&report, gr::StrFormat("bodies checked against the direct engine "
                              "answer: %lld, wrong: %lld",
                              static_cast<long long>(verified),
                              static_cast<long long>(wrong_total)));
  const Quantile reload = QuantileOf(reload_ms, 0.5);
  if (spec.reload_every_s > 0.0) {
    Note(&report, gr::StrFormat("reload_ms = %.4f ms (median, n=%lld, "
                                "failed %lld)",
                                reload.value,
                                static_cast<long long>(reload.count),
                                static_cast<long long>(reload_failed)));
    if (reload.count == 0) report.correct = false;
  }
  const double prep_s =
      spec.sampled ? MedianOf(cold_start_s) : reload.value / 1e3;

  if (!args.trace) {
    MetricMap& m = report.metrics;
    m["setup_s"] = Metric{MedianOf(setup_s), "s", kSetupReps};
    m["peak_rss_mib"] = Metric{PeakRssMiB(), "MiB", 1};
    m["prep_s"] = Metric{prep_s, "s",
                         spec.sampled
                             ? static_cast<int64_t>(cold_start_s.size())
                             : reload.count};
    m["time_ms"] = Metric{nominal.p50_ms.value, "ms", nominal.p50_ms.count};
    m["goodput"] = Metric{goodput, "1/s", at.attempted};
    return report;
  }

  // --- Traced run: server counters, then layer replays. ---
  const gr::Stopwatch replay_watch;
  MetricMap& layers = report.metrics;
  layers["data.generate_s"] = Metric{MedianOf(generate_s), "s", kSetupReps};
  layers["tensor.pool_hit_ratio"] = pool_hits;
  ServerCounters(st->stack->server(), &layers);
  LayerInputs in;
  in.dataset = st->ds.get();
  in.split = &st->split;
  in.rare = CotrainOptions(/*blocks=*/true, args.seed);
  in.rollout = BlockRollout();
  in.artifact_path = st->path_a;
  in.engine = st->engine_options;
  in.requests.assign(st->sent.begin() + static_cast<long>(warmup),
                     st->sent.begin() +
                         static_cast<long>(std::min(warmup + 64,
                                                    st->sent.size())));
  ReplayLayers(in, &layers);
  // Share of the median request's latency the replayed per-request work
  // (parse, decode, queue wait, engine share of a mean-size batch, encode)
  // does not cover: socket, epoll and hand-off time.
  auto v = [&layers](const char* name) { return layers.at(name).value; };
  const double accounted_ms =
      (v("net.parse_us") + v("net.json_decode_us") + v("net.encode_us")) /
          1e3 +
      v("net.queue_delay_ms_p50") +
      v("serve.predict_batch_ms") * v("net.batch_size_mean") / 16.0;
  layers["core.unaccounted_frac"] =
      Metric{1.0 - accounted_ms / nominal.p50_ms.value, "ratio",
             nominal.p50_ms.count};
  layers["trace.overhead_s"] = Metric{replay_watch.ElapsedSeconds(), "s", 1};
  MarkPaths(args.workload, &layers);
  return report;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"cotrain-full", "cotrain-blocks", "serve-sampled",
          "serve-lookup-reload"};
}

Report RunWorkload(const RunArgs& args) {
  if (args.workload == "cotrain-full") return RunCotrain(args, false);
  if (args.workload == "cotrain-blocks") return RunCotrain(args, true);
  Report report = RunServe(args);
  std::remove((args.work_dir + "/serve_a.grare").c_str());
  std::remove((args.work_dir + "/serve_b.grare").c_str());
  return report;
}

}  // namespace perfbench
