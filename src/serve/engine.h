// Copyright 2026 The GraphRARE Authors.
//
// Batched inference over a loaded ModelArtifact. The engine is the serving
// half of the train->artifact->serve pipeline: it rebuilds the backbone
// once, precomputes the graph operators (and, in full-graph mode, the
// entire logit matrix), and then answers read-only queries concurrently.
//
// Two execution modes, chosen by EngineOptions::fanouts:
//
//  * full-graph (empty fanouts): one forward pass over the whole optimized
//    graph at load time; Predict is a row lookup + softmax. The cached
//    logits are bitwise the training-time eval logits (same sparse
//    features, same operators), which is what the artifact round-trip
//    tests pin down.
//
//  * neighbor-sampled (non-empty fanouts): each query samples a
//    fanout-bounded block around its nodes (data::NeighborSampler) and
//    runs the forward on the block only, so per-query cost scales with
//    the block, not the graph. Sampling is seeded per request, so
//    PredictBatchWithSeeds returns identical results no matter how many
//    OpenMP threads execute it (or whether OpenMP is compiled in at all).

#ifndef GRAPHRARE_SERVE_ENGINE_H_
#define GRAPHRARE_SERVE_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "serve/artifact.h"

namespace graphrare {
namespace serve {

/// Inference configuration.
struct EngineOptions {
  /// Per-layer sampling fanouts. Empty = full-graph inference (exact).
  /// -1 entries mean unlimited fanout at that layer. Neighbors are drawn
  /// without replacement.
  std::vector<int64_t> fanouts;
  /// Base seed for the per-request sampling streams.
  uint64_t seed = 1;

  Status Validate() const;
};

/// One node's answer: argmax class plus the full probability row.
struct Prediction {
  int64_t node = -1;
  int64_t predicted_class = -1;
  std::vector<float> probabilities;  ///< softmax over num_classes logits
};

/// Top-k (class, probability) pairs of an already-computed prediction,
/// descending probability (ties broken by class id), k clamped to the
/// class count. Rank the Prediction you already hold: in sampled mode a
/// second Predict call re-samples and could disagree with it.
std::vector<std::pair<int64_t, float>> TopKOf(const Prediction& prediction,
                                              int64_t k);

/// Loads an artifact once and serves batched node-classification queries.
/// All query methods are const and safe to call from concurrent threads.
class InferenceEngine {
 public:
  /// Takes ownership of the artifact, rebuilds the model, and precomputes
  /// the serving state (operators; full logits in full-graph mode).
  static Result<InferenceEngine> FromArtifact(ModelArtifact artifact,
                                              EngineOptions options = {});

  /// Convenience: ModelArtifact::Load + FromArtifact.
  static Result<InferenceEngine> LoadFrom(const std::string& path,
                                          EngineOptions options = {});

  InferenceEngine(InferenceEngine&&) = default;
  InferenceEngine& operator=(InferenceEngine&&) = default;

  /// Answers one query of (possibly repeated) node ids. Fails on ids
  /// outside [0, num_nodes()).
  Result<std::vector<Prediction>> Predict(
      const std::vector<int64_t>& node_ids) const;

  /// Answers many queries, one caller-supplied sampling seed per request,
  /// with the requests distributed over OpenMP threads. Request i depends
  /// only on its node ids and seeds[i] (Predict uses seed 0), so results
  /// are positionally aligned with `requests`, independent of thread
  /// count, and a scheduler that stamps each request with its arrival
  /// index gets answers that do not depend on how requests were grouped
  /// into engine calls — the continuous-batching tier's determinism
  /// contract. Seeds only matter in sampled mode; full-graph answers
  /// ignore them.
  Result<std::vector<std::vector<Prediction>>> PredictBatchWithSeeds(
      const std::vector<std::vector<int64_t>>& requests,
      const std::vector<uint64_t>& seeds) const;

  int64_t num_nodes() const { return artifact_.num_nodes(); }
  int64_t num_classes() const { return artifact_.num_classes(); }
  bool full_graph_mode() const { return options_.fanouts.empty(); }
  const ModelArtifact& artifact() const { return artifact_; }
  const EngineOptions& options() const { return options_; }

  /// The precomputed logit matrix (full-graph mode only; one row per
  /// node). No binary calls this: it is the bitwise-equality hook of the
  /// artifact round-trip tests, kept because Predictions carry softmax
  /// probabilities, which cannot pin the logit bits.
  const tensor::Tensor& FullLogits() const;

 private:
  InferenceEngine(ModelArtifact artifact, EngineOptions options);

  /// Evaluates one request with the sampling stream for `request_seed`.
  Result<std::vector<Prediction>> PredictWithSeed(
      const std::vector<int64_t>& node_ids, uint64_t request_seed) const;

  ModelArtifact artifact_;
  EngineOptions options_;
  std::unique_ptr<nn::NodeClassifier> model_;
  tensor::Tensor full_logits_;  ///< empty in sampled mode
};

/// Thread-safe shared handle to the live engine — the hot-swap seam of the
/// serving tier. Readers snapshot the current engine with Get() and run
/// their whole batch against that snapshot; Swap() atomically publishes a
/// replacement (artifact reload) while snapshots taken earlier keep the old
/// engine alive until their batches finish. No request is ever dropped or
/// answered by a half-installed engine.
class EngineHandle {
 public:
  explicit EngineHandle(std::shared_ptr<const InferenceEngine> engine)
      : engine_(std::move(engine)) {}

  /// Snapshot of the current engine (never null).
  std::shared_ptr<const InferenceEngine> Get() const {
    std::lock_guard<std::mutex> lock(mu_);
    return engine_;
  }

  /// Publishes `next` and returns the previous engine. The caller usually
  /// drops the return value; in-flight batches holding snapshots keep the
  /// old engine alive regardless.
  std::shared_ptr<const InferenceEngine> Swap(
      std::shared_ptr<const InferenceEngine> next) {
    std::lock_guard<std::mutex> lock(mu_);
    engine_.swap(next);
    ++generation_;
    return next;
  }

  /// 1 for the engine installed at construction, +1 per Swap.
  int64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return generation_;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const InferenceEngine> engine_;
  int64_t generation_ = 1;
};

}  // namespace serve
}  // namespace graphrare

#endif  // GRAPHRARE_SERVE_ENGINE_H_
