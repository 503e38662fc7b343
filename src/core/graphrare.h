// Copyright 2026 The GraphRARE Authors.
//
// Umbrella header: include this to use the whole GraphRARE library.
//
// Quickstart — train, deploy, serve:
//
//   #include "core/graphrare.h"
//   using namespace graphrare;
//
//   data::Dataset ds = *data::MakeDataset("cornell");
//   auto splits = data::MakeSplits(ds.labels, ds.num_classes);
//   core::GraphRareOptions opts;
//   opts.backbone = nn::BackboneKind::kGcn;
//   core::GraphRareTrainer trainer(&ds, opts);
//   core::GraphRareResult r = trainer.Run(splits[0]);
//   // r.test_accuracy, r.final_homophily, r.best_graph, r.model ...
//
//   // The run's product is the co-trained model + optimized graph:
//   serve::ModelArtifact artifact = *r.ExportArtifact(ds);
//   artifact.Save("model.grare");
//
//   // Any process can then serve it (no training stack involved):
//   auto engine = *serve::InferenceEngine::LoadFrom("model.grare");
//   auto preds = *engine.Predict({0, 1, 2});
//   // preds[0].predicted_class, preds[0].probabilities ...

#ifndef GRAPHRARE_CORE_GRAPHRARE_H_
#define GRAPHRARE_CORE_GRAPHRARE_H_

#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/registry.h"
#include "data/sampler.h"
#include "data/splits.h"
#include "entropy/relative_entropy.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "rl/env.h"
#include "rl/ppo.h"
#include "serve/artifact.h"
#include "serve/engine.h"
#include "tensor/ops.h"
#include "core/block_rollout.h"
#include "core/edit_merger.h"
#include "core/experiment.h"
#include "core/observation.h"
#include "core/reward.h"
#include "core/rewiring_baselines.h"
#include "core/topology_optimizer.h"
#include "core/topology_state.h"
#include "core/trainer.h"

#endif  // GRAPHRARE_CORE_GRAPHRARE_H_
