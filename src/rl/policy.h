// Copyright 2026 The GraphRARE Authors.
//
// Actor-critic network for the multi-discrete topology MDP (paper Sec.
// IV-B). The observation is one row per node; a shared tanh MLP trunk feeds
// two 3-way categorical heads (Delta-k and Delta-d per node, actions
// {-1, 0, +1}) and a value head whose per-node outputs are mean-pooled into
// the scalar state value. This mirrors Stable-Baselines3's MultiDiscrete
// MlpPolicy, with the per-node factorisation made explicit.

#ifndef GRAPHRARE_RL_POLICY_H_
#define GRAPHRARE_RL_POLICY_H_

#include <memory>

#include "nn/linear.h"
#include "nn/module.h"

namespace graphrare {
namespace rl {

/// Number of choices per action component: {-1, 0, +1}.
inline constexpr int kNumActionChoices = 3;

/// Forward products of the policy network.
struct PolicyOutput {
  tensor::Variable k_logits;  ///< (N, 3) logits of the Delta-k head
  tensor::Variable d_logits;  ///< (N, 3) logits of the Delta-d head
  tensor::Variable value;     ///< (1, 1) state value
};

/// Shared-trunk actor-critic MLP.
class ActorCriticPolicy : public nn::Module {
 public:
  ActorCriticPolicy(int64_t obs_dim, int64_t hidden, Rng* rng);

  /// obs is (N, obs_dim); one row per node.
  PolicyOutput Forward(const tensor::Variable& obs) const;

 private:
  std::unique_ptr<nn::Linear> fc1_;
  std::unique_ptr<nn::Linear> fc2_;
  std::unique_ptr<nn::Linear> k_head_;
  std::unique_ptr<nn::Linear> d_head_;
  std::unique_ptr<nn::Linear> value_head_;
};

}  // namespace rl
}  // namespace graphrare

#endif  // GRAPHRARE_RL_POLICY_H_
