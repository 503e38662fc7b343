#include "serve/engine.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "common/string_util.h"
#include "data/sampler.h"
#include "graph/subgraph.h"

namespace graphrare {
namespace serve {

namespace {

/// Decorrelates the per-request sampling streams from the engine seed.
uint64_t RequestSeed(uint64_t engine_seed, uint64_t request_index) {
  return engine_seed + 0x9E3779B97F4A7C15ULL * (request_index + 1);
}

/// Stable softmax of one logit row.
std::vector<float> SoftmaxRow(const float* logits, int64_t n) {
  float max_logit = logits[0];
  for (int64_t c = 1; c < n; ++c) max_logit = std::max(max_logit, logits[c]);
  std::vector<float> probs(static_cast<size_t>(n));
  float sum = 0.0f;
  for (int64_t c = 0; c < n; ++c) {
    probs[static_cast<size_t>(c)] = std::exp(logits[c] - max_logit);
    sum += probs[static_cast<size_t>(c)];
  }
  for (float& p : probs) p /= sum;
  return probs;
}

}  // namespace

Status EngineOptions::Validate() const {
  for (const int64_t f : fanouts) {
    if (f < 1 && f != -1) {
      return Status::InvalidArgument(
          "every fanout must be >= 1 (or -1 for unlimited)");
    }
  }
  return Status::OK();
}

InferenceEngine::InferenceEngine(ModelArtifact artifact,
                                 EngineOptions options)
    : artifact_(std::move(artifact)), options_(std::move(options)) {}

Result<InferenceEngine> InferenceEngine::FromArtifact(ModelArtifact artifact,
                                                      EngineOptions options) {
  GR_RETURN_IF_ERROR(options.Validate());
  InferenceEngine engine(std::move(artifact), std::move(options));
  GR_ASSIGN_OR_RETURN(engine.model_, engine.artifact_.MakeModel());
  if (engine.full_graph_mode()) {
    // One exact forward pass at load time; queries are row lookups. This
    // also warms every lazily-built graph operator, so the engine never
    // mutates shared state once serving starts.
    nn::ModelInputs inputs;
    inputs.graph = &engine.artifact_.graph;
    inputs.features = nn::LayerInput::Sparse(engine.artifact_.features);
    engine.full_logits_ =
        engine.model_->Logits(inputs, /*training=*/false, nullptr).value();
  }
  return engine;
}

Result<InferenceEngine> InferenceEngine::LoadFrom(const std::string& path,
                                                  EngineOptions options) {
  GR_ASSIGN_OR_RETURN(ModelArtifact artifact, ModelArtifact::Load(path));
  return FromArtifact(std::move(artifact), std::move(options));
}

const tensor::Tensor& InferenceEngine::FullLogits() const {
  GR_CHECK(full_graph_mode())
      << "FullLogits() is only available in full-graph mode";
  return full_logits_;
}

Result<std::vector<Prediction>> InferenceEngine::PredictWithSeed(
    const std::vector<int64_t>& node_ids, uint64_t request_seed) const {
  if (node_ids.empty()) {
    return Status::InvalidArgument("empty query: no node ids");
  }
  for (const int64_t id : node_ids) {
    if (id < 0 || id >= num_nodes()) {
      return Status::OutOfRange(
          StrFormat("node id %lld outside [0, %lld)",
                    static_cast<long long>(id),
                    static_cast<long long>(num_nodes())));
    }
  }

  // Resolve each queried node to a row of some logit matrix.
  const tensor::Tensor* logits = nullptr;
  tensor::Tensor block_logits;
  std::vector<int64_t> rows;
  rows.reserve(node_ids.size());
  if (full_graph_mode()) {
    logits = &full_logits_;
    rows = node_ids;
  } else {
    // Sampled forward on the fanout-bounded block around the (deduped)
    // query nodes. The sampler is request-local and seeded by request
    // index, so concurrent queries never share mutable state and results
    // are independent of scheduling.
    std::vector<int64_t> seeds = node_ids;
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    data::SamplerOptions so;
    so.fanouts = options_.fanouts;
    so.seed = RequestSeed(options_.seed, request_seed);
    data::NeighborSampler sampler(&artifact_.graph, so);
    const graph::Subgraph block = sampler.SampleBlock(seeds);
    auto local_features = std::make_shared<tensor::CsrMatrix>(
        block.LocalRows(*artifact_.features));
    nn::ModelInputs inputs;
    inputs.graph = &block.graph;
    inputs.features = nn::LayerInput::Sparse(std::move(local_features));
    block_logits =
        model_->Logits(inputs, /*training=*/false, nullptr).value();
    logits = &block_logits;
    for (const int64_t id : node_ids) {
      rows.push_back(block.GlobalToLocal(id));
    }
  }

  std::vector<Prediction> out;
  out.reserve(node_ids.size());
  for (size_t i = 0; i < node_ids.size(); ++i) {
    Prediction p;
    p.node = node_ids[i];
    p.probabilities = SoftmaxRow(logits->row(rows[i]), num_classes());
    p.predicted_class = logits->ArgMaxRow(rows[i]);
    out.push_back(std::move(p));
  }
  return out;
}

Result<std::vector<Prediction>> InferenceEngine::Predict(
    const std::vector<int64_t>& node_ids) const {
  return PredictWithSeed(node_ids, 0);
}

Result<std::vector<std::vector<Prediction>>>
InferenceEngine::PredictBatchWithSeeds(
    const std::vector<std::vector<int64_t>>& requests,
    const std::vector<uint64_t>& seeds) const {
  if (seeds.size() != requests.size()) {
    return Status::InvalidArgument(
        StrFormat("PredictBatchWithSeeds: %zu requests but %zu seeds",
                  requests.size(), seeds.size()));
  }
  const int64_t n = static_cast<int64_t>(requests.size());
  std::vector<std::vector<Prediction>> out(requests.size());
  std::vector<Status> statuses(requests.size());
  // Requests are seeded by their caller-visible index, so any schedule
  // produces the same batch; dynamic chunking absorbs mixed query sizes.
  ParallelForDynamic(n, 1, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      auto result = PredictWithSeed(requests[static_cast<size_t>(r)],
                                    seeds[static_cast<size_t>(r)]);
      if (result.ok()) {
        out[static_cast<size_t>(r)] = std::move(result).value();
      } else {
        statuses[static_cast<size_t>(r)] = result.status();
      }
    }
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return out;
}

std::vector<std::pair<int64_t, float>> TopKOf(const Prediction& prediction,
                                              int64_t k) {
  const std::vector<float>& probs = prediction.probabilities;
  std::vector<std::pair<int64_t, float>> ranked;
  ranked.reserve(probs.size());
  for (size_t c = 0; c < probs.size(); ++c) {
    ranked.emplace_back(static_cast<int64_t>(c), probs[c]);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (k >= 0 && ranked.size() > static_cast<size_t>(k)) {
    ranked.resize(static_cast<size_t>(k));
  }
  return ranked;
}

}  // namespace serve
}  // namespace graphrare
