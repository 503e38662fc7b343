// RL module tests: policy shapes, PPO mechanics (GAE, buffer discipline),
// and actual learning on a synthetic multi-discrete bandit environment.

#include <gtest/gtest.h>

#include "rl/env.h"
#include "rl/ppo.h"
#include "tensor/ops.h"
#include "test_support.h"

namespace graphrare {
namespace rl {
namespace {

using tensor::Tensor;

TEST(PolicyTest, OutputShapes) {
  Rng rng(1);
  ActorCriticPolicy policy(6, 16, &rng);
  tensor::Variable obs(Tensor::Full(10, 6, 1.0f), false);
  PolicyOutput out = policy.Forward(obs);
  EXPECT_EQ(out.k_logits.value().rows(), 10);
  EXPECT_EQ(out.k_logits.value().cols(), kNumActionChoices);
  EXPECT_EQ(out.d_logits.value().rows(), 10);
  EXPECT_TRUE(out.value.value().is_scalar());
}

TEST(PpoOptionsTest, Validation) {
  PpoOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.clip = 0.0f;
  EXPECT_FALSE(o.Validate().ok());
  o = PpoOptions();
  o.gamma = 1.5f;
  EXPECT_FALSE(o.Validate().ok());
  o = PpoOptions();
  o.steps_per_update = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(PpoAgentTest, ActReturnsBoundedDeltas) {
  PpoOptions opts;
  opts.steps_per_update = 4;
  PpoAgent agent(5, opts);
  Rng rng(2);
  const Tensor obs = Tensor::Rand(8, 5, &rng);
  const ActionSample a = agent.Act(obs);
  agent.StoreReward(0.0);
  EXPECT_EQ(a.delta_k.size(), 8u);
  EXPECT_EQ(a.delta_d.size(), 8u);
  for (int v : a.delta_k) EXPECT_TRUE(v >= -1 && v <= 1);
  for (int v : a.delta_d) EXPECT_TRUE(v >= -1 && v <= 1);
}

TEST(PpoAgentTest, ReadyToUpdateAfterRolloutFills) {
  PpoOptions opts;
  opts.steps_per_update = 3;
  PpoAgent agent(4, opts);
  Rng rng(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(agent.ReadyToUpdate());
    agent.Act(Tensor::Rand(5, 4, &rng));
    agent.StoreReward(0.1);
  }
  EXPECT_TRUE(agent.ReadyToUpdate());
  agent.Update(Tensor::Rand(5, 4, &rng));
  EXPECT_FALSE(agent.ReadyToUpdate());
  EXPECT_EQ(agent.num_updates(), 1);
}

TEST(PpoAgentDeathTest, DoubleActAborts) {
  PpoAgent agent(4, {});
  Rng rng(5);
  agent.Act(Tensor::Rand(3, 4, &rng));
  EXPECT_DEATH(agent.Act(Tensor::Rand(3, 4, &rng)), "StoreReward");
}

TEST(PpoAgentDeathTest, StoreRewardWithoutActAborts) {
  PpoAgent agent(4, {});
  EXPECT_DEATH(agent.StoreReward(1.0), "Act");
}

TEST(PpoAgentTest, DeterministicForSeed) {
  PpoOptions opts;
  opts.seed = 77;
  PpoAgent a(4, opts), b(4, opts);
  Rng rng(6);
  const Tensor obs = Tensor::Rand(6, 4, &rng);
  const ActionSample sa = a.Act(obs);
  const ActionSample sb = b.Act(obs);
  EXPECT_EQ(sa.delta_k, sb.delta_k);
  EXPECT_EQ(sa.delta_d, sb.delta_d);
}

// ---- Cross-commit pin ---------------------------------------------------------

// The co-training digests hash outcomes (rewards, accuracies, graphs), and a
// short run samples the same actions under a small change to the policy's
// arithmetic, so they cannot see one. This pin hashes the arithmetic
// itself over a fixed rollout of two PPO updates: each step's per-node
// joint log-probability of the sampled action (log-softmax of both heads,
// summed in float as PpoAgent stores it), the state value, and the final
// StateDict. Observations span [-8, 8) so the tanh trunk sees inputs on
// both sides of its 1.0 cut-off and into saturation.
constexpr char kRolloutDigest[] = "87a52e4ba5bdd63b";

TEST(PpoAgentPinTest, TwoUpdateRolloutBytesArePinned) {
  PpoOptions opts;
  opts.seed = 19;
  opts.steps_per_update = 3;
  opts.update_epochs = 2;
  PpoAgent agent(5, opts);
  Rng rng(23);
  testing_ref::BitDigest digest;
  for (int step = 0; step < 2 * opts.steps_per_update; ++step) {
    const Tensor obs = Tensor::Rand(40, 5, &rng, -8.0f, 8.0f);
    const tensor::Variable in(obs, false);
    const PolicyOutput out = agent.policy().Forward(in);
    const Tensor lk = tensor::ops::LogSoftmaxRows(out.k_logits).value();
    const Tensor ld = tensor::ops::LogSoftmaxRows(out.d_logits).value();
    const ActionSample a = agent.Act(obs);
    double reward = 0.0;
    for (size_t v = 0; v < a.delta_k.size(); ++v) {
      const auto r = static_cast<int64_t>(v);
      digest.AddFloat(lk.row(r)[a.delta_k[v] + 1] + ld.row(r)[a.delta_d[v] + 1]);
      reward += a.delta_k[v] - 0.5 * a.delta_d[v];
    }
    digest.AddFloat(out.value.value().scalar());
    agent.StoreReward(reward / static_cast<double>(a.delta_k.size()));
    if (agent.ReadyToUpdate()) {
      digest.AddDouble(agent.Update(Tensor::Rand(40, 5, &rng, -8.0f, 8.0f)));
    }
  }
  ASSERT_EQ(agent.num_updates(), 2);
  for (const auto& [name, t] : agent.policy().StateDict()) {
    digest.AddBytes(name.data(), name.size());
    digest.AddTensor(t);
  }
  EXPECT_EQ(digest.Hex(), kRolloutDigest);
}

// ---- Learning sanity: a bandit where +1 on channel k is always best. -------

/// Each component's reward is +1 for delta_k = +1 and -1 for delta_k = -1;
/// d deltas are reward-neutral. Observations are constant; the optimal
/// policy pushes the k head towards "+1".
class AlwaysIncreaseBandit : public Env {
 public:
  explicit AlwaysIncreaseBandit(int64_t components)
      : components_(components) {}

  Tensor Reset() override { return Tensor::Full(components_, obs_dim(), 1.0f); }

  double Step(const ActionSample& action, Tensor* next_obs) override {
    double reward = 0.0;
    for (int v : action.delta_k) reward += v;
    reward /= static_cast<double>(components_);
    *next_obs = Tensor::Full(components_, obs_dim(), 1.0f);
    return reward;
  }

  int64_t obs_dim() const override { return 3; }
  int64_t num_components() const override { return components_; }

 private:
  int64_t components_;
};

TEST(PpoLearningTest, LearnsToIncreaseK) {
  PpoOptions opts;
  opts.steps_per_update = 8;
  opts.update_epochs = 4;
  opts.lr = 3e-3f;
  opts.entropy_coef = 0.003f;
  opts.seed = 11;
  PpoAgent agent(3, opts);
  AlwaysIncreaseBandit env(6);
  const std::vector<double> rewards =
      RunAgentOnBatchedEnvs(&agent, {&env}, 160);
  double early = 0.0, late = 0.0;
  for (int i = 0; i < 20; ++i) early += rewards[static_cast<size_t>(i)];
  for (size_t i = rewards.size() - 20; i < rewards.size(); ++i) {
    late += rewards[i];
  }
  early /= 20.0;
  late /= 20.0;
  EXPECT_GT(late, early + 0.2) << "PPO failed to improve on the bandit";
  EXPECT_GT(late, 0.5);  // near-optimal is 1.0
}

TEST(BatchedEnvsTest, SharedPolicyLearnsAcrossParallelEnvs) {
  PpoOptions opts;
  opts.steps_per_update = 8;
  opts.lr = 3e-3f;
  opts.entropy_coef = 0.003f;
  opts.seed = 23;
  PpoAgent agent(3, opts);
  AlwaysIncreaseBandit a(4), b(4), c(4);
  const std::vector<double> rewards =
      RunAgentOnBatchedEnvs(&agent, {&a, &b, &c}, 160);
  ASSERT_EQ(rewards.size(), 160u);
  double late = 0.0;
  for (size_t i = rewards.size() - 20; i < rewards.size(); ++i) {
    late += rewards[i];
  }
  EXPECT_GT(late / 20.0, 0.3) << "batched PPO failed to improve";
}

TEST(PpoLearningTest, JointRatioModeAlsoLearns) {
  PpoOptions opts;
  opts.steps_per_update = 8;
  opts.lr = 3e-3f;
  opts.joint_ratio = true;
  opts.seed = 12;
  PpoAgent agent(3, opts);
  AlwaysIncreaseBandit env(4);
  const std::vector<double> rewards =
      RunAgentOnBatchedEnvs(&agent, {&env}, 160);
  double late = 0.0;
  for (size_t i = rewards.size() - 20; i < rewards.size(); ++i) {
    late += rewards[i];
  }
  EXPECT_GT(late / 20.0, 0.2);
}

}  // namespace
}  // namespace rl
}  // namespace graphrare
