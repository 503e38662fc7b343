// Copyright 2026 The GraphRARE Authors.
//
// Actor-critic network for the multi-discrete topology MDP (paper Sec.
// IV-B). The observation is one row per node; a shared tanh MLP trunk feeds
// two 3-way categorical heads (Delta-k and Delta-d per node, actions
// {-1, 0, +1}) and a value head whose per-node outputs are mean-pooled into
// the scalar state value. This mirrors Stable-Baselines3's MultiDiscrete
// MlpPolicy, with the per-node factorisation made explicit. The three heads
// are one (hidden, 7) layer: columns [0, 3) are the Delta-k logits, [3, 6)
// the Delta-d logits and 6 the per-node value.

#ifndef GRAPHRARE_RL_POLICY_H_
#define GRAPHRARE_RL_POLICY_H_

#include <memory>

#include "nn/linear.h"
#include "nn/module.h"

namespace graphrare {
namespace rl {

/// Number of choices per action component: {-1, 0, +1}.
inline constexpr int kNumActionChoices = 3;
/// Column layout of the policy head's (N, kHeadWidth) output.
inline constexpr int64_t kKLogitCol = 0;
inline constexpr int64_t kDLogitCol = kNumActionChoices;
inline constexpr int64_t kValueCol = 2 * kNumActionChoices;
inline constexpr int64_t kHeadWidth = kValueCol + 1;

/// Shared-trunk actor-critic MLP.
class ActorCriticPolicy : public nn::Module {
 public:
  ActorCriticPolicy(int64_t obs_dim, int64_t hidden, Rng* rng);

  /// obs is (N, obs_dim); one row per node. Returns the (N, kHeadWidth)
  /// head output.
  tensor::Variable Forward(const tensor::Variable& obs) const;

 private:
  std::unique_ptr<nn::Linear> fc1_;
  std::unique_ptr<nn::Linear> fc2_;
  std::unique_ptr<nn::Linear> head_;
};

}  // namespace rl
}  // namespace graphrare

#endif  // GRAPHRARE_RL_POLICY_H_
