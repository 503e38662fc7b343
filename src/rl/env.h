// Copyright 2026 The GraphRARE Authors.
//
// Generic environment interface for the multi-discrete topology MDP and
// its one driver. GraphRareTrainer::Run drives PpoAgent directly
// (Algorithm 1); core::BlockTopologyEnv implements the interface, and tests
// use a synthetic bandit-style env to validate learning.

#ifndef GRAPHRARE_RL_ENV_H_
#define GRAPHRARE_RL_ENV_H_

#include "rl/ppo.h"
#include "tensor/tensor.h"

namespace graphrare {
namespace rl {

/// A multi-discrete environment: observations are one row per action
/// component pair, actions are per-row {-1, 0, +1} deltas on two channels.
class Env {
 public:
  virtual ~Env() = default;

  /// Resets to the initial state, returning the first observation.
  virtual tensor::Tensor Reset() = 0;

  /// Applies the action; returns the reward and writes the next observation.
  virtual double Step(const ActionSample& action,
                      tensor::Tensor* next_obs) = 0;

  virtual int64_t obs_dim() const = 0;
  virtual int64_t num_components() const = 0;
};

/// Lockstep-batched episode driver for externally constructed env sets
/// (e.g. one env per sampled subgraph block): resets every env, then for
/// `steps` iterations row-concatenates the observations, samples ONE action
/// for the combined rows (a single policy forward for the whole batch),
/// splits the action back per env, and stores the mean env reward as the
/// transition reward. PPO updates trigger on the shared rollout buffer as
/// usual. With a single env this is the plain act -> step -> store-reward
/// loop, updating on the next observation. Returns the per-step mean
/// rewards.
std::vector<double> RunAgentOnBatchedEnvs(PpoAgent* agent,
                                          const std::vector<Env*>& envs,
                                          int steps);

}  // namespace rl
}  // namespace graphrare

#endif  // GRAPHRARE_RL_ENV_H_
