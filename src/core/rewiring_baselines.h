// Copyright 2026 The GraphRARE Authors.
//
// Simplified-but-faithful implementations of the feature-similarity rewiring
// SOTA family the paper compares against (Table III):
//
//  * UGCN* — Universal GCN's core idea: connect each node to its top-k most
//    cosine-similar nodes (kNN graph), union with the original topology,
//    train a GCN on the result.
//  * SimP-GCN* — SimP-GCN's core idea: propagate over a learned blend of
//    the original normalised adjacency and a feature-kNN operator, with the
//    blend weight trained end-to-end.
//
// Both rely on a fixed top-k — exactly the "no node personality" weakness
// GraphRARE's per-node DRL-chosen (k, d) addresses.

#ifndef GRAPHRARE_CORE_REWIRING_BASELINES_H_
#define GRAPHRARE_CORE_REWIRING_BASELINES_H_

#include <memory>

#include "data/dataset.h"
#include "nn/models.h"

namespace graphrare {
namespace core {

/// Options for feature-similarity kNN graph construction.
struct KnnGraphOptions {
  int k = 5;
  uint64_t seed = 19;
};

/// Builds the cosine-similarity kNN graph over node features, embedded
/// with the default FeatureEmbeddingOptions. Exact for graphs of up to
/// 4096 nodes; larger graphs score a sampled pool of 512 candidates per
/// node (documented approximation).
graph::Graph BuildKnnGraph(const tensor::Tensor& features,
                           const KnnGraphOptions& options);

/// UGCN*: union of the original edges and the feature kNN edges.
graph::Graph BuildUgcnStarGraph(const data::Dataset& dataset,
                                const KnnGraphOptions& options);

/// SimP-GCN*: a 2-layer GCN propagating over
///   P = s * norm_adj(G) + (1 - s) * norm_adj(kNN),
/// with s = sigmoid(theta) learned jointly. The kNN operator is fixed at
/// construction; the graph operator follows whatever graph is passed in.
class SimpGcnStarModel : public nn::NodeClassifier {
 public:
  SimpGcnStarModel(const nn::ModelOptions& options,
                   std::shared_ptr<const tensor::CsrMatrix> knn_operator);

  tensor::Variable Logits(const nn::ModelInputs& in, bool training,
                          Rng* rng) const override;
  /// Reported as GCN-family (custom baselines have no dedicated enum).
  nn::BackboneKind kind() const override { return nn::BackboneKind::kGcn; }

 private:
  std::unique_ptr<nn::Linear> lin1_;
  std::unique_ptr<nn::Linear> lin2_;
  tensor::Variable theta_;
  std::shared_ptr<const tensor::CsrMatrix> knn_operator_;
  float dropout_;
};

}  // namespace core
}  // namespace graphrare

#endif  // GRAPHRARE_CORE_REWIRING_BASELINES_H_
