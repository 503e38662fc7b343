#include "rl/env.h"

#include <algorithm>

namespace graphrare {
namespace rl {

namespace {

/// Row-concatenates per-env observation matrices (all share obs_dim).
tensor::Tensor ConcatRows(const std::vector<tensor::Tensor>& parts) {
  GR_CHECK(!parts.empty());
  const int64_t cols = parts[0].cols();
  int64_t rows = 0;
  for (const auto& p : parts) {
    GR_CHECK_EQ(p.cols(), cols);
    rows += p.rows();
  }
  tensor::Tensor out(rows, cols);
  int64_t at = 0;
  for (const auto& p : parts) {
    for (int64_t r = 0; r < p.rows(); ++r, ++at) {
      std::copy(p.row(r), p.row(r) + cols, out.row(at));
    }
  }
  return out;
}

/// The rows [begin, begin + count) of a batched action.
ActionSample SliceAction(const ActionSample& action, int64_t begin,
                         int64_t count) {
  ActionSample out;
  out.delta_k.assign(action.delta_k.begin() + begin,
                     action.delta_k.begin() + begin + count);
  out.delta_d.assign(action.delta_d.begin() + begin,
                     action.delta_d.begin() + begin + count);
  return out;
}

}  // namespace

std::vector<double> RunAgentOnBatchedEnvs(PpoAgent* agent,
                                          const std::vector<Env*>& envs,
                                          int steps) {
  GR_CHECK(agent != nullptr);
  GR_CHECK(!envs.empty());
  std::vector<tensor::Tensor> obs(envs.size());
  for (size_t i = 0; i < envs.size(); ++i) {
    GR_CHECK(envs[i] != nullptr);
    obs[i] = envs[i]->Reset();
  }
  std::vector<double> mean_rewards;
  mean_rewards.reserve(static_cast<size_t>(steps));
  for (int t = 0; t < steps; ++t) {
    const ActionSample action = agent->Act(ConcatRows(obs));
    double reward_sum = 0.0;
    int64_t row = 0;
    for (size_t i = 0; i < envs.size(); ++i) {
      const int64_t rows = obs[i].rows();
      tensor::Tensor next;
      reward_sum += envs[i]->Step(SliceAction(action, row, rows), &next);
      GR_CHECK_EQ(next.rows(), rows)
          << "batched envs must keep their component count fixed";
      obs[i] = std::move(next);
      row += rows;
    }
    const double mean_reward =
        reward_sum / static_cast<double>(envs.size());
    agent->StoreReward(mean_reward);
    mean_rewards.push_back(mean_reward);
    if (agent->ReadyToUpdate()) {
      agent->Update(ConcatRows(obs));
    }
  }
  return mean_rewards;
}

}  // namespace rl
}  // namespace graphrare
