// Copyright 2026 The GraphRARE Authors.
//
// Build/link smoke test (CTest label: smoke). Touches at least one symbol
// that is *defined in a .cc file* of every module library, so the test only
// links if all nine archives resolve together in the declared dependency
// order. Per-suite builds can hide a missing-symbol or link-order
// regression in a module they never call; this suite exists to catch it.

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/experiment.h"
#include "core/observation.h"
#include "data/generator.h"
#include "entropy/feature_entropy.h"
#include "graph/graph.h"
#include "nn/models.h"
#include "rl/ppo.h"
#include "serve/engine.h"
#include "tensor/tensor.h"

namespace graphrare {
namespace {

TEST(BuildSanity, LinksEveryModuleLibrary) {
  // common (status.cc)
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");

  // tensor (tensor.cc)
  const tensor::Tensor product =
      tensor::MatMul(tensor::Tensor::Full(3, 3, 1.0f),
                     tensor::Tensor::Full(3, 2, 1.0f));
  EXPECT_EQ(product.rows(), 3);
  EXPECT_EQ(product.cols(), 2);

  // graph (graph.cc)
  const graph::Graph g = graph::Graph::FromEdgeListOrDie(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);

  // entropy (feature_entropy.cc)
  Rng rng(7);
  const tensor::Tensor features = tensor::Tensor::Rand(3, 8, &rng);
  const tensor::Tensor embedded =
      entropy::EmbedFeatures(features, entropy::FeatureEmbeddingOptions{});
  EXPECT_EQ(embedded.rows(), 3);

  // data (generator.cc)
  data::GeneratorOptions gen;
  gen.num_nodes = 24;
  gen.num_edges = 48;
  gen.num_features = 16;
  gen.num_classes = 2;
  const auto dataset = data::GenerateDataset(gen);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset->graph.num_nodes(), 24);

  // nn (models.cc)
  EXPECT_STREQ(nn::BackboneName(nn::BackboneKind::kGcn), "gcn");

  // rl (ppo.cc)
  rl::PpoAgent agent(core::kObservationDim, rl::PpoOptions{});
  EXPECT_FALSE(agent.ReadyToUpdate());

  // serve (artifact.cc / engine.cc)
  EXPECT_EQ(serve::ModelArtifact{}.Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(serve::EngineOptions{}.Validate().ok());

  // core (experiment.cc)
  EXPECT_FALSE(core::BenchFullScale());
}

}  // namespace
}  // namespace graphrare
