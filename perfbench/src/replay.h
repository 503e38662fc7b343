// Per-layer replays for the traced run.
//
// The workloads' paths are monolithic public calls (GraphRareTrainer::Run,
// BlockRolloutRunner::RunRound inside RunBlockCoTraining, an HTTP round
// trip), so the traced run times each layer by calling its public
// functions in isolation on the workload's own inputs. Nothing here
// re-implements the co-training loop: each replay is one layer call timed
// over a few repetitions.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/block_rollout.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "serve/engine.h"
#include "workloads.h"

namespace perfbench {

struct LayerInputs {
  const graphrare::data::Dataset* dataset = nullptr;
  const graphrare::data::Split* split = nullptr;
  /// Backbone, entropy, PPO and (k, d) settings of the workload.
  graphrare::core::GraphRareOptions rare;
  /// Block shape (B, seeds per block, fanouts, prefetch) of the workload.
  graphrare::core::BlockRolloutOptions rollout;
  /// Artifact the serving layers load, and the engine mode they build.
  std::string artifact_path;
  graphrare::serve::EngineOptions engine;
  /// Predict requests of the workload's shape.
  std::vector<std::vector<int64_t>> requests;
};

/// Backbone hyper-parameters as GraphRareTrainer::Run derives them.
graphrare::nn::ModelOptions ModelOptionsFor(
    const graphrare::core::GraphRareOptions& rare,
    const graphrare::data::Dataset& ds);

/// Times every layer's public calls on `in` (median over 5 calls
/// after a warm-up call, except the one-shot entropy build) and writes:
///   entropy.build_s, entropy.restrict_ms, nn.train_epoch_ms, nn.eval_ms,
///   nn.train_batch_ms, core.observation_ms, core.rewire_ms, rl.act_ms,
///   rl.update_ms, data.next_round_ms, core.round_ms, core.merge_ms,
///   core.conflict_ratio, data.block_nodes, serve.artifact_bytes,
///   serve.artifact_load_ms, serve.engine_build_ms, serve.predict_batch_ms,
///   data.sample_block_us, net.parse_us, net.json_decode_us,
///   net.encode_us.
void ReplayLayers(const LayerInputs& in, MetricMap* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
