#include "entropy/feature_entropy.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace graphrare {
namespace entropy {

tensor::Tensor EmbedFeatures(const tensor::Tensor& features,
                             const FeatureEmbeddingOptions& options) {
  // The projection path reads `features` straight into the product; only
  // phi = identity copies it.
  tensor::Tensor z;
  if (options.projection_dim > 0 && options.projection_dim < features.cols()) {
    Rng rng(options.seed);
    const float scale =
        1.0f / std::sqrt(static_cast<float>(options.projection_dim));
    tensor::Tensor proj = tensor::Tensor::Randn(
        features.cols(), options.projection_dim, &rng, scale);
    z = tensor::MatMul(features, proj);
  } else {
    z = features;
  }
  if (options.l2_normalize) {
    for (int64_t r = 0; r < z.rows(); ++r) {
      float* row = z.row(r);
      double norm_sq = 0.0;
      for (int64_t c = 0; c < z.cols(); ++c) norm_sq += row[c] * row[c];
      const float inv =
          norm_sq > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm_sq)) : 0.0f;
      for (int64_t c = 0; c < z.cols(); ++c) row[c] *= inv;
    }
  }
  return z;
}

double EmbeddingDot(const tensor::Tensor& embeddings, int64_t v, int64_t u) {
  GR_DCHECK(v >= 0 && v < embeddings.rows());
  GR_DCHECK(u >= 0 && u < embeddings.rows());
  const float* pv = embeddings.row(v);
  const float* pu = embeddings.row(u);
  double dot = 0.0;
  for (int64_t c = 0; c < embeddings.cols(); ++c) dot += pv[c] * pu[c];
  return dot;
}

std::vector<double> FeatureEntropyForPairs(
    const tensor::Tensor& embeddings, const std::vector<NodePair>& pairs) {
  std::vector<double> logits;
  logits.reserve(pairs.size());
  for (const auto& [v, u] : pairs) {
    logits.push_back(EmbeddingDot(embeddings, v, u));
  }
  if (logits.empty()) return {};

  // log Z via log-sum-exp over the pair set.
  const double mx = *std::max_element(logits.begin(), logits.end());
  double sum_exp = 0.0;
  for (double s : logits) sum_exp += std::exp(s - mx);
  const double log_z = mx + std::log(sum_exp);

  std::vector<double> entropies;
  entropies.reserve(pairs.size());
  for (double s : logits) {
    const double log_p = s - log_z;   // always <= 0
    const double p = std::exp(log_p);
    entropies.push_back(-p * log_p);  // -P log P (Eq. 4)
  }
  return entropies;
}

}  // namespace entropy
}  // namespace graphrare
