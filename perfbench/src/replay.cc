#include "replay.h"

#include <algorithm>
#include <utility>

#include <sys/stat.h>

#include "bench_stats.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/edit_merger.h"
#include "core/observation.h"
#include "core/topology_optimizer.h"
#include "data/block_pipeline.h"
#include "data/sampler.h"
#include "entropy/relative_entropy.h"
#include "loadgen.h"
#include "net/http.h"
#include "net/json.h"
#include "net/server.h"
#include "nn/trainer.h"
#include "rl/ppo.h"
#include "serve/artifact.h"

namespace perfbench {

namespace gr = graphrare;

namespace {

/// Timed calls per replay, after one untimed warm-up call.
constexpr int kReps = 5;

/// Median wall time of `reps` calls of `fn` after one untimed warm-up
/// call, scaled from seconds by `scale`.
template <typename Fn>
Metric TimeCalls(int reps, double scale, const char* unit, Fn&& fn) {
  fn();
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const gr::Stopwatch watch;
    fn();
    samples.push_back(watch.ElapsedSeconds() * scale);
  }
  return Metric{MedianOf(samples), unit, reps, true};
}

/// Same, for calls too short to time one at a time: each sample is the
/// mean over `batch` consecutive calls fn(0..batch-1).
template <typename Fn>
Metric TimeBatched(int reps, int batch, double scale, const char* unit,
                   Fn&& fn) {
  for (int i = 0; i < batch; ++i) fn(i);
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const gr::Stopwatch watch;
    for (int i = 0; i < batch; ++i) fn(i);
    samples.push_back(watch.ElapsedSeconds() * scale / batch);
  }
  return Metric{MedianOf(samples), unit, static_cast<int64_t>(reps) * batch,
                true};
}

void ReplayTraining(const LayerInputs& in,
                    const gr::entropy::RelativeEntropyIndex& index,
                    MetricMap* out) {
  const gr::data::Dataset& ds = *in.dataset;
  const gr::graph::Graph& g = ds.graph;
  const gr::nn::ModelOptions mo = ModelOptionsFor(in.rare, ds);

  // nn: full-graph epoch and evaluation (ClassifierTrainer).
  auto model = gr::nn::MakeModel(in.rare.backbone, mo);
  gr::nn::ClassifierTrainer::Options to;
  to.adam = in.rare.adam;
  to.seed = in.rare.seed;
  gr::nn::ClassifierTrainer trainer(
      model.get(), gr::nn::LayerInput::Sparse(ds.FeaturesCsr()), &ds.labels,
      to);
  (*out)["nn.train_epoch_ms"] = TimeCalls(kReps, 1e3, "ms", [&] {
    trainer.TrainEpoch(g, in.split->train);
  });
  (*out)["nn.eval_ms"] = TimeCalls(kReps, 1e3, "ms", [&] {
    trainer.Evaluate(g, in.split->val);
  });

  // core: observation encoding and graph rebuild under a random state.
  gr::core::TopologyState state(g.num_nodes(), in.rare.k_max,
                                in.rare.d_max);
  gr::Rng rng(in.rare.seed ^ 0x0B5E4A7ULL);
  state.SetRandom(in.rare.k_max, in.rare.d_max, &rng);
  gr::tensor::Tensor obs;
  (*out)["core.observation_ms"] = TimeCalls(kReps, 1e3, "ms", [&] {
    obs = gr::core::BuildObservation(g, g, state, index, 0.0);
  });
  (*out)["core.rewire_ms"] = TimeCalls(kReps, 1e3, "ms", [&] {
    gr::core::BuildOptimizedGraph(g, state, index);
  });

  // rl: Act per step, Update per rollout of steps_per_update steps.
  gr::rl::PpoOptions po = in.rare.ppo;
  po.seed = gr::core::DeriveSeeds(in.rare.seed).ppo;
  gr::rl::PpoAgent agent(gr::core::kObservationDim, po);
  std::vector<double> act_ms, update_ms;
  const int updates = std::max(2, kReps / 2);
  for (int u = 0; u <= updates; ++u) {
    for (int s = 0; s < po.steps_per_update; ++s) {
      const gr::Stopwatch watch;
      agent.Act(obs);
      if (u > 0) act_ms.push_back(watch.ElapsedMillis());
      agent.StoreReward(0.01 * (s - 1));
    }
    const gr::Stopwatch watch;
    agent.Update(obs);
    if (u > 0) update_ms.push_back(watch.ElapsedMillis());
  }
  (*out)["rl.act_ms"] = Metric{MedianOf(act_ms), "ms",
                               static_cast<int64_t>(act_ms.size()), true};
  (*out)["rl.update_ms"] = Metric{MedianOf(update_ms), "ms",
                                  static_cast<int64_t>(update_ms.size()),
                                  true};
}

void ReplayBlocks(const LayerInputs& in,
                  const gr::entropy::RelativeEntropyIndex& index,
                  MetricMap* out) {
  const gr::data::Dataset& ds = *in.dataset;
  const gr::graph::Graph& g = ds.graph;
  const gr::core::DerivedSeeds seeds = gr::core::DeriveSeeds(in.rare.seed);
  std::vector<int64_t> fanouts = in.rollout.fanouts;
  if (fanouts.empty()) fanouts = {10, 10};

  // One block per train seed batch of the workload's block shape.
  gr::Rng rng(seeds.shuffle);
  const auto batches = gr::data::NeighborSampler::MakeBatches(
      in.split->train, in.rollout.seeds_per_block, /*shuffle=*/true, &rng);
  gr::data::SamplerOptions so;
  so.fanouts = fanouts;
  so.seed = seeds.sampler;
  gr::data::NeighborSampler sampler(&g, so);
  std::vector<gr::graph::Subgraph> blocks;
  for (size_t b = 0; b < batches.size() && blocks.size() < 8; ++b) {
    blocks.push_back(sampler.SampleBlock(batches[b]));
  }

  const gr::nn::ModelOptions mo = ModelOptionsFor(in.rare, ds);
  auto model = gr::nn::MakeModel(in.rare.backbone, mo);
  gr::nn::MiniBatchTrainer::Options to;
  to.adam = in.rare.adam;
  to.seed = in.rare.seed;
  gr::nn::MiniBatchTrainer trainer(model.get(), ds.FeaturesCsr(), &ds.labels,
                                   to);
  size_t next = 0;
  (*out)["nn.train_batch_ms"] = TimeCalls(kReps, 1e3, "ms", [&] {
    trainer.TrainBatch(blocks[next++ % blocks.size()]);
  });
  next = 0;
  (*out)["entropy.restrict_ms"] = TimeCalls(kReps, 1e3, "ms", [&] {
    index.Restrict(blocks[next++ % blocks.size()]);
  });

  // data: one round of blocks sampled inline (the work a prefetching
  // producer hides behind training).
  gr::data::BlockPipelineOptions po;
  po.sampler = so;
  po.blocks_per_round = in.rollout.blocks_per_round;
  po.seeds_per_block = in.rollout.seeds_per_block;
  po.partition = in.rollout.partition;
  po.partition_seed = seeds.sampler;
  po.prefetch_depth = 0;
  gr::data::BlockPipeline pipeline(&g, in.split->train, po);
  (*out)["data.next_round_ms"] =
      TimeCalls(kReps, 1e3, "ms", [&] { pipeline.NextRound(); });

  // core: whole rollout rounds with the workload's rollout options, the
  // MDP knobs overridden exactly as RunBlockCoTraining does.
  gr::core::BlockRolloutOptions ro = in.rollout;
  ro.fanouts = fanouts;
  ro.seed = seeds.sampler;
  ro.partition_seed = seeds.partition;
  ro.env.k_max = in.rare.k_max;
  ro.env.d_max = in.rare.d_max;
  ro.env.reward = in.rare.reward;
  ro.env.entropy = in.rare.entropy;
  ro.env.seed = seeds.env;
  gr::core::BlockRolloutRunner runner(&ds, in.split, &trainer, &index, ro);
  gr::rl::PpoOptions ppo = in.rare.ppo;
  ppo.seed = seeds.ppo;
  // An update cadence of one round or less (cotrain-full's) would end every
  // replayed round in an update and leave none to time without one.
  ppo.steps_per_update =
      std::max(ppo.steps_per_update, 2 * ro.steps_per_episode);
  gr::rl::PpoAgent agent(gr::core::kObservationDim, ppo);
  // A round that ends in a PPO update is left out of core.round_ms: the
  // update is rl.update_ms, so the two add up without double counting.
  std::vector<double> round_ms, conflict, block_nodes;
  const int rounds = 3;
  for (int r = 0; r < rounds; ++r) {
    const int64_t updates = agent.num_updates();
    const gr::Stopwatch watch;
    const auto stats = runner.RunRound(&agent);
    if (agent.num_updates() == updates) round_ms.push_back(watch.ElapsedMillis());
    conflict.push_back(stats.conflicts.ConflictRate());
    block_nodes.push_back(static_cast<double>(stats.block_nodes));
  }
  GR_CHECK(!round_ms.empty()) << "every replayed round ended in an update";
  (*out)["core.round_ms"] =
      Metric{MedianOf(round_ms), "ms", static_cast<int64_t>(round_ms.size()),
             true};
  (*out)["core.conflict_ratio"] =
      Metric{MedianOf(conflict), "ratio", rounds, true};
  (*out)["data.block_nodes"] =
      Metric{MedianOf(block_nodes), "count", rounds, true};
  (*out)["core.merge_ms"] =
      TimeCalls(kReps, 1e3, "ms", [&] { runner.MergedGraph(); });
}

void ReplayServing(const LayerInputs& in, MetricMap* out) {
  struct stat st;
  const double bytes = ::stat(in.artifact_path.c_str(), &st) == 0
                           ? static_cast<double>(st.st_size)
                           : 0.0;
  (*out)["serve.artifact_bytes"] = Metric{bytes, "bytes", 1, true};
  (*out)["serve.artifact_load_ms"] = TimeCalls(kReps, 1e3, "ms", [&] {
    GR_CHECK(gr::serve::ModelArtifact::Load(in.artifact_path).ok());
  });
  std::vector<double> build_ms;
  std::unique_ptr<gr::serve::InferenceEngine> engine;
  for (int r = 0; r <= kReps; ++r) {
    auto artifact_or = gr::serve::ModelArtifact::Load(in.artifact_path);
    GR_CHECK(artifact_or.ok()) << artifact_or.status().ToString();
    const gr::Stopwatch watch;
    auto engine_or = gr::serve::InferenceEngine::FromArtifact(
        std::move(artifact_or).value(), in.engine);
    if (r > 0) build_ms.push_back(watch.ElapsedMillis());
    GR_CHECK(engine_or.ok()) << engine_or.status().ToString();
    engine = std::make_unique<gr::serve::InferenceEngine>(
        std::move(engine_or).value());
  }
  (*out)["serve.engine_build_ms"] = Metric{MedianOf(build_ms), "ms",
                                           static_cast<int64_t>(kReps),
                                           true};

  // One engine call over a batch of 16 requests (the server's default
  // max_batch), seeded as the batcher seeds them.
  const size_t batch = std::min<size_t>(16, in.requests.size());
  const std::vector<std::vector<int64_t>> batch_requests(
      in.requests.begin(), in.requests.begin() + static_cast<long>(batch));
  std::vector<uint64_t> seeds(batch);
  for (size_t i = 0; i < batch; ++i) seeds[i] = i;
  (*out)["serve.predict_batch_ms"] = TimeCalls(kReps, 1e3, "ms", [&] {
    GR_CHECK(engine->PredictBatchWithSeeds(batch_requests, seeds).ok());
  });

  // data: the per-request sampled block (engine fanouts, or 10,10 for a
  // full-graph engine, which never samples).
  gr::data::SamplerOptions so;
  so.fanouts = in.engine.fanouts.empty() ? std::vector<int64_t>{10, 10}
                                         : in.engine.fanouts;
  const gr::graph::Graph& graph = engine->artifact().graph;
  std::vector<std::vector<int64_t>> seed_sets;
  for (size_t i = 0; i < in.requests.size() && seed_sets.size() < 64; ++i) {
    std::vector<int64_t> s = in.requests[i];
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    seed_sets.push_back(std::move(s));
  }
  const int n_sets = static_cast<int>(seed_sets.size());
  (*out)["data.sample_block_us"] =
      TimeBatched(kReps, n_sets, 1e6, "us", [&](int i) {
        gr::data::NeighborSampler sampler(&graph, so);
        sampler.SampleBlock(seed_sets[static_cast<size_t>(i)]);
      });

  // net: request parse, body decode, response encode.
  std::vector<std::string> wires, bodies;
  for (int i = 0; i < n_sets; ++i) {
    wires.push_back(PredictWire(in.requests[static_cast<size_t>(i)]));
    bodies.push_back(PredictBody(in.requests[static_cast<size_t>(i)]));
  }
  (*out)["net.parse_us"] = TimeBatched(kReps, n_sets, 1e6, "us", [&](int i) {
    gr::net::HttpParser parser;
    parser.Feed(wires[static_cast<size_t>(i)]);
    GR_CHECK(parser.Next() == gr::net::HttpParser::State::kReady);
  });
  (*out)["net.json_decode_us"] =
      TimeBatched(kReps, n_sets, 1e6, "us", [&](int i) {
        auto doc = gr::net::JsonValue::Parse(bodies[static_cast<size_t>(i)]);
        GR_CHECK(doc.ok());
        int64_t sum = 0;
        for (const auto& item : doc->Find("nodes")->items()) {
          sum += item.AsInt64().value();
        }
        GR_CHECK(sum >= 0);
      });
  std::vector<std::vector<gr::serve::Prediction>> preds;
  for (int i = 0; i < n_sets; ++i) {
    auto p = engine->Predict(in.requests[static_cast<size_t>(i)]);
    GR_CHECK(p.ok());
    preds.push_back(std::move(p).value());
  }
  (*out)["net.encode_us"] =
      TimeBatched(kReps, n_sets, 1e6, "us", [&](int i) {
        gr::net::HttpResponse r;
        r.body = gr::net::PredictionsToJson(preds[static_cast<size_t>(i)]);
        GR_CHECK(!gr::net::SerializeResponse(r).empty());
      });
}

}  // namespace

gr::nn::ModelOptions ModelOptionsFor(const gr::core::GraphRareOptions& rare,
                                     const gr::data::Dataset& ds) {
  gr::nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = rare.hidden;
  mo.num_classes = ds.num_classes;
  mo.num_layers = rare.num_layers;
  mo.dropout = rare.dropout;
  mo.gat_heads = rare.gat_heads;
  mo.seed = rare.seed;
  return mo;
}

void ReplayLayers(const LayerInputs& in, MetricMap* out) {
  GR_CHECK(in.dataset != nullptr && in.split != nullptr);
  gr::entropy::EntropyOptions eo = in.rare.entropy;
  eo.seed = gr::core::DeriveSeeds(in.rare.seed).entropy;
  const gr::Stopwatch watch;
  auto index_or = gr::entropy::RelativeEntropyIndex::Build(
      in.dataset->graph, in.dataset->features, eo);
  GR_CHECK(index_or.ok()) << index_or.status().ToString();
  (*out)["entropy.build_s"] = Metric{watch.ElapsedSeconds(), "s", 1, true};
  const gr::entropy::RelativeEntropyIndex index = std::move(index_or).value();

  ReplayTraining(in, index, out);
  ReplayBlocks(in, index, out);
  ReplayServing(in, out);
}

}  // namespace perfbench
