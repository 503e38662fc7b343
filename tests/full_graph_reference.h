// The full-graph topology-MDP step written out from public calls, as the
// reference that BlockTopologyEnv over the identity block is checked
// against: TopologyState::Apply -> BuildOptimizedGraph(G_0) ->
// ClassifierTrainer::TrainEpoch -> Evaluate on the train set ->
// ComputeReward (Eq. 11) -> BuildObservation. Shared by the rl and
// partition suites.

#ifndef GRAPHRARE_TESTS_FULL_GRAPH_REFERENCE_H_
#define GRAPHRARE_TESTS_FULL_GRAPH_REFERENCE_H_

#include <vector>

#include "core/graphrare.h"

namespace graphrare {
namespace testing_ref {

class FullGraphReference {
 public:
  /// Every pointer must outlive the reference. Only the accuracy/loss
  /// reward (RewardKind::kAccLoss) is modelled.
  FullGraphReference(const data::Dataset* ds, const data::Split* split,
                     nn::ClassifierTrainer* trainer,
                     const entropy::RelativeEntropyIndex* index,
                     const core::TopologyEnvOptions& options)
      : ds_(ds),
        split_(split),
        trainer_(trainer),
        index_(index),
        options_(options),
        state_(ds->num_nodes(), options.k_max, options.d_max),
        current_(ds->graph) {
    GR_CHECK(options.reward.kind == core::RewardKind::kAccLoss);
  }

  tensor::Tensor Reset() {
    prev_ = Evaluate();
    return core::BuildObservation(ds_->graph, current_, state_, *index_,
                                  0.0);
  }

  double Step(const rl::ActionSample& action, tensor::Tensor* next_obs) {
    state_.Apply(action);
    current_ = core::BuildOptimizedGraph(ds_->graph, state_, *index_);
    for (int e = 0; e < options_.gnn_epochs_per_step; ++e) {
      trainer_->TrainEpoch(current_, split_->train);
    }
    const core::RewardInputs curr = Evaluate();
    const double reward = core::ComputeReward(options_.reward, prev_, curr);
    prev_ = curr;
    *next_obs = core::BuildObservation(ds_->graph, current_, state_,
                                       *index_, reward);
    return reward;
  }

  const graph::Graph& current_graph() const { return current_; }

 private:
  core::RewardInputs Evaluate() {
    const nn::EvalResult eval = trainer_->Evaluate(current_, split_->train);
    core::RewardInputs out;
    out.accuracy = eval.accuracy;
    out.loss = eval.loss;
    return out;
  }

  const data::Dataset* ds_;
  const data::Split* split_;
  nn::ClassifierTrainer* trainer_;
  const entropy::RelativeEntropyIndex* index_;
  core::TopologyEnvOptions options_;
  core::TopologyState state_;
  graph::Graph current_;
  core::RewardInputs prev_;
};

/// Drives `ref` with `agent` for `steps` steps: act, step, store the
/// reward, and update on the next observation whenever the rollout buffer
/// fills. Returns the rewards.
inline std::vector<double> RunPpoOnReference(rl::PpoAgent* agent,
                                             FullGraphReference* ref,
                                             int steps) {
  std::vector<double> rewards;
  tensor::Tensor obs = ref->Reset();
  for (int t = 0; t < steps; ++t) {
    const rl::ActionSample action = agent->Act(obs);
    const double reward = ref->Step(action, &obs);
    agent->StoreReward(reward);
    rewards.push_back(reward);
    if (agent->ReadyToUpdate()) agent->Update(obs);
  }
  return rewards;
}

}  // namespace testing_ref
}  // namespace graphrare

#endif  // GRAPHRARE_TESTS_FULL_GRAPH_REFERENCE_H_
