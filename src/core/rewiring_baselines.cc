#include "core/rewiring_baselines.h"

#include <algorithm>
#include <queue>

#include "entropy/feature_entropy.h"
#include "tensor/ops.h"

namespace graphrare {
namespace core {

namespace ops = tensor::ops;
using tensor::Variable;

namespace {

constexpr entropy::FeatureEmbeddingOptions kKnnEmbedding{};
constexpr int64_t kExactLimit = 4096;
constexpr int64_t kSampledCandidates = 512;

}  // namespace

graph::Graph BuildKnnGraph(const tensor::Tensor& features,
                           const KnnGraphOptions& options) {
  GR_CHECK_GT(options.k, 0);
  const int64_t n = features.rows();
  const tensor::Tensor z = entropy::EmbedFeatures(features, kKnnEmbedding);
  Rng rng(options.seed);

  std::vector<graph::Edge> edges;
  edges.reserve(static_cast<size_t>(n) * static_cast<size_t>(options.k));
  std::vector<std::pair<float, int64_t>> scored;
  for (int64_t v = 0; v < n; ++v) {
    scored.clear();
    if (n <= kExactLimit) {
      for (int64_t u = 0; u < n; ++u) {
        if (u == v) continue;
        scored.emplace_back(
            static_cast<float>(entropy::EmbeddingDot(z, v, u)), u);
      }
    } else {
      const std::vector<int64_t> candidates = rng.SampleWithoutReplacement(
          n, std::min<int64_t>(kSampledCandidates, n));
      for (int64_t u : candidates) {
        if (u == v) continue;
        scored.emplace_back(
            static_cast<float>(entropy::EmbeddingDot(z, v, u)), u);
      }
    }
    const size_t keep =
        std::min<size_t>(static_cast<size_t>(options.k), scored.size());
    std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(keep),
                      scored.end(),
                      [](const auto& a, const auto& b) {
                        return a.first != b.first ? a.first > b.first
                                                  : a.second < b.second;
                      });
    for (size_t i = 0; i < keep; ++i) {
      edges.emplace_back(v, scored[i].second);
    }
  }
  return graph::Graph::FromEdgeListOrDie(n, edges);
}

graph::Graph BuildUgcnStarGraph(const data::Dataset& dataset,
                                const KnnGraphOptions& options) {
  const graph::Graph knn = BuildKnnGraph(dataset.features, options);
  std::vector<graph::Edge> edges = dataset.graph.edges();
  const std::vector<graph::Edge>& knn_edges = knn.edges();
  edges.insert(edges.end(), knn_edges.begin(), knn_edges.end());
  return graph::Graph::FromEdgeListOrDie(dataset.num_nodes(), edges);
}

SimpGcnStarModel::SimpGcnStarModel(
    const nn::ModelOptions& options,
    std::shared_ptr<const tensor::CsrMatrix> knn_operator)
    : knn_operator_(std::move(knn_operator)), dropout_(options.dropout) {
  GR_CHECK_OK(options.Validate());
  GR_CHECK(knn_operator_ != nullptr);
  Rng rng(options.seed);
  lin1_ = std::make_unique<nn::Linear>(options.in_features, options.hidden,
                                       &rng);
  lin2_ = std::make_unique<nn::Linear>(options.hidden, options.num_classes,
                                       &rng);
  RegisterChild("lin1", lin1_.get());
  RegisterChild("lin2", lin2_.get());
  // theta = 0 -> s = 0.5: start as an even blend.
  theta_ = RegisterParameter("theta", tensor::Tensor::Scalar(0.0f));
}

Variable SimpGcnStarModel::Logits(const nn::ModelInputs& in, bool training,
                                  Rng* rng) const {
  GR_CHECK(in.graph != nullptr);
  auto adj = in.graph->NormalizedAdjacency();
  Variable s = ops::Sigmoid(theta_);
  Variable one(tensor::Tensor::Scalar(1.0f), /*requires_grad=*/false);
  Variable one_minus_s = ops::Sub(one, s);

  auto blend = [&](const Variable& h) {
    return ops::Add(ops::ScaleByScalar(ops::SpMM(adj, h), s),
                    ops::ScaleByScalar(ops::SpMM(knn_operator_, h),
                                       one_minus_s));
  };

  Variable h1 = in.features.is_sparse()
                    ? lin1_->ForwardSparse(in.features.sparse)
                    : lin1_->Forward(in.features.dense);
  Variable h = ops::Relu(blend(h1));
  if (dropout_ > 0.0f && training) {
    h = ops::Dropout(h, dropout_, training, rng);
  }
  return blend(lin2_->Forward(h));
}

}  // namespace core
}  // namespace graphrare
