// Copyright 2026 The GraphRARE Authors.
//
// Proximal Policy Optimization (Schulman et al. 2017) for the multi-discrete
// topology MDP. Replaces Stable-Baselines3 [33] + OpenAI Gym [2] in the
// paper's stack.
//
// The joint action factorises over nodes and heads; the clipped surrogate is
// computed per node (the per-node log-prob is logp_k + logp_d) and averaged,
// which keeps importance ratios bounded for graphs with thousands of nodes.
// An option restores the strict SB3 behaviour (single joint ratio per step).

#ifndef GRAPHRARE_RL_PPO_H_
#define GRAPHRARE_RL_PPO_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "nn/optim.h"
#include "rl/policy.h"

namespace graphrare {
namespace rl {

/// PPO hyper-parameters. The policy's hidden width 64, GAE λ = 0.95 and
/// the value-loss coefficient 0.5 are SB3 defaults the paper leaves
/// untuned; they are constants in ppo.cc.
struct PpoOptions {
  float lr = 3e-4f;
  float clip = 0.2f;
  float gamma = 0.99f;
  float entropy_coef = 0.01f;
  int update_epochs = 4;
  /// Steps collected between updates (rollout length).
  int steps_per_update = 8;
  /// false: per-node factorised ratios (default, numerically robust).
  /// true: one joint ratio per step (strict SB3 MultiDiscrete semantics).
  bool joint_ratio = false;
  uint64_t seed = 5;

  Status Validate() const;
};

/// The sampled action for one step: per-node deltas in {-1, 0, +1}.
struct ActionSample {
  std::vector<int> delta_k;
  std::vector<int> delta_d;
};

/// One stored transition.
struct Transition {
  tensor::Tensor obs;           // (N, obs_dim)
  std::vector<int64_t> k_choice;  // per node in {0,1,2}
  std::vector<int64_t> d_choice;
  tensor::Tensor logprob;       // (N, 1) per-node joint logprob (k + d)
  double value = 0.0;
  double reward = 0.0;
};

/// One rollout step's PPO loss as a single tape node over the policy
/// head's (N, kHeadWidth) output: the clipped surrogate (per-node or joint
/// ratio, per options.joint_ratio), plus 0.5 times the squared error of
/// the state value against `value_target`, minus entropy_coef times the
/// summed mean entropies of both heads; all times `weight`. Its backward
/// writes d(loss)/d(head), formed serially in the forward pass, straight
/// into the head's gradient. `actor_loss` receives the unweighted
/// surrogate term.
tensor::Variable PpoStepLoss(const tensor::Variable& head, const Transition& t,
                             float advantage, float value_target, float weight,
                             const PpoOptions& options, float* actor_loss);

/// PPO agent: act / store-reward / update cycle driven by the co-training
/// loop. Owns the policy network and its optimizer.
class PpoAgent {
 public:
  PpoAgent(int64_t obs_dim, const PpoOptions& options);

  /// Samples an action for the given observation and records the transition
  /// (reward filled in later via StoreReward).
  ActionSample Act(const tensor::Tensor& obs);

  /// Attaches the reward to the most recent transition.
  void StoreReward(double reward);

  /// True when the rollout buffer reached steps_per_update.
  bool ReadyToUpdate() const;

  /// Runs PPO epochs over the buffered rollout, then clears the buffer.
  /// `last_value_obs` bootstraps the value of the state following the final
  /// transition. Returns the mean actor loss of the final epoch.
  double Update(const tensor::Tensor& last_value_obs);

  const ActorCriticPolicy& policy() const { return *policy_; }
  int64_t num_updates() const { return num_updates_; }

 private:
  /// GAE(lambda) advantages + returns for the buffered trajectory.
  void ComputeAdvantages(double last_value, std::vector<double>* advantages,
                         std::vector<double>* returns) const;

  PpoOptions options_;
  std::unique_ptr<ActorCriticPolicy> policy_;
  std::unique_ptr<nn::Adam> optimizer_;
  std::vector<Transition> buffer_;
  Rng rng_;
  int64_t num_updates_ = 0;
  bool pending_reward_ = false;
};

}  // namespace rl
}  // namespace graphrare

#endif  // GRAPHRARE_RL_PPO_H_
