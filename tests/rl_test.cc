// RL module tests: policy shapes, PPO mechanics (GAE, buffer discipline),
// and actual learning on a synthetic multi-discrete bandit environment.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "rl/env.h"
#include "rl/ppo.h"
#include "test_support.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace graphrare {
namespace rl {
namespace {

using tensor::Tensor;

TEST(PolicyTest, OutputShapes) {
  Rng rng(1);
  ActorCriticPolicy policy(6, 16, &rng);
  tensor::Variable obs(Tensor::Full(10, 6, 1.0f), false);
  const tensor::Variable head = policy.Forward(obs);
  EXPECT_EQ(head.rows(), 10);
  EXPECT_EQ(head.cols(), kHeadWidth);
  EXPECT_EQ(kValueCol, kHeadWidth - 1);
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

/// What Act stores for a policy head output, recomputed through the oracle
/// log-softmax: both heads' per-node log-probabilities and the state value
/// (the compensated mean of the value column).
struct HeadReadout {
  Tensor lk;
  Tensor ld;
  float value;
};

HeadReadout ReadHead(const Tensor& head) {
  const int64_t n = head.rows();
  Tensor k(n, kNumActionChoices), d(n, kNumActionChoices), v(n, 1);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < kNumActionChoices; ++c) {
      k.at(r, c) = head.at(r, kKLogitCol + c);
      d.at(r, c) = head.at(r, kDLogitCol + c);
    }
    v.at(r, 0) = head.at(r, kValueCol);
  }
  return {testing_ref::LogSoftmaxRows(tensor::Variable(k, false)).value(),
          testing_ref::LogSoftmaxRows(tensor::Variable(d, false)).value(),
          v.Mean()};
}

// The co-training digests hash outcomes (rewards, accuracies, graphs), and a
// short run samples the same actions under a small change to the policy's
// arithmetic, so they cannot see one. This pin hashes the arithmetic
// itself over a fixed rollout of two PPO updates: each step's per-node
// joint log-probability of the sampled action (log-softmax of both heads,
// summed in float as PpoAgent stores it), the state value, and the final
// StateDict. Observations span [-8, 8) so the tanh trunk sees inputs on
// both sides of its 1.0 cut-off and into saturation. The rollout runs at 1
// and 4 OpenMP threads; both must give the recorded bytes.
constexpr char kRolloutDigest[] = "0518fd8ba86e466d";

std::string RolloutDigest() {
  PpoOptions opts;
  opts.seed = 19;
  opts.steps_per_update = 3;
  opts.update_epochs = 2;
  PpoAgent agent(5, opts);
  Rng rng(23);
  testing_ref::BitDigest digest;
  for (int step = 0; step < 2 * opts.steps_per_update; ++step) {
    const Tensor obs = Tensor::Rand(40, 5, &rng, -8.0f, 8.0f);
    const HeadReadout out =
        ReadHead(agent.policy().Forward(tensor::Variable(obs, false)).value());
    const ActionSample a = agent.Act(obs);
    double reward = 0.0;
    for (size_t v = 0; v < a.delta_k.size(); ++v) {
      const auto r = static_cast<int64_t>(v);
      digest.AddFloat(out.lk.row(r)[a.delta_k[v] + 1] +
                      out.ld.row(r)[a.delta_d[v] + 1]);
      reward += a.delta_k[v] - 0.5 * a.delta_d[v];
    }
    digest.AddFloat(out.value);
    agent.StoreReward(reward / static_cast<double>(a.delta_k.size()));
    if (agent.ReadyToUpdate()) {
      digest.AddDouble(agent.Update(Tensor::Rand(40, 5, &rng, -8.0f, 8.0f)));
    }
  }
  EXPECT_EQ(agent.num_updates(), 2);
  for (const auto& [name, t] : agent.policy().StateDict()) {
    digest.AddBytes(name.data(), name.size());
    digest.AddTensor(t);
  }
  return digest.Hex();
}

TEST(PpoAgentPinTest, TwoUpdateRolloutBytesArePinnedAtOneAndFourThreads) {
#ifdef _OPENMP
  const int old_threads = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    EXPECT_EQ(RolloutDigest(), kRolloutDigest) << threads << " thread(s)";
  }
  omp_set_num_threads(old_threads);
#else
  EXPECT_EQ(RolloutDigest(), kRolloutDigest);
#endif
}

// The freshly initialised policy's first Act, before any Update: the
// sampled choices, each node's stored joint log-probability and the state
// value. Recorded before the three policy heads became one (64, 7) layer,
// and unchanged by it: the head's columns are the old heads' Glorot draws
// side by side.
constexpr char kFirstActDigest[] = "727679f136248e4f";

TEST(PpoAgentPinTest, FirstActBeforeAnyUpdateIsPinned) {
  PpoOptions opts;
  opts.seed = 31;
  PpoAgent agent(6, opts);
  Rng rng(37);
  const Tensor obs = Tensor::Rand(300, 6, &rng, -24.0f, 24.0f);
  const HeadReadout out =
      ReadHead(agent.policy().Forward(tensor::Variable(obs, false)).value());
  const ActionSample a = agent.Act(obs);
  testing_ref::BitDigest digest;
  for (size_t v = 0; v < a.delta_k.size(); ++v) {
    const auto r = static_cast<int64_t>(v);
    digest.AddU64(static_cast<uint64_t>(a.delta_k[v] + 1));
    digest.AddU64(static_cast<uint64_t>(a.delta_d[v] + 1));
    digest.AddFloat(out.lk.row(r)[a.delta_k[v] + 1] +
                    out.ld.row(r)[a.delta_d[v] + 1]);
  }
  digest.AddFloat(out.value);
  EXPECT_EQ(digest.Hex(), kFirstActDigest);
}

// ---- The fused step loss against central differences in double ------------

/// Both heads' log-probabilities of one head row, in double.
void RefRowLogProbs(const double* row, double* lp) {
  for (int h = 0; h < 2; ++h) {
    const double* x = row + (h == 0 ? kKLogitCol : kDLogitCol);
    double mx = x[0];
    for (int c = 1; c < kNumActionChoices; ++c) mx = std::max(mx, x[c]);
    double z = 0.0;
    for (int c = 0; c < kNumActionChoices; ++c) z += std::exp(x[c] - mx);
    for (int c = 0; c < kNumActionChoices; ++c) {
      lp[h * kNumActionChoices + c] = x[c] - mx - std::log(z);
    }
  }
}

/// The taken action's joint log-probability per row, in double.
std::vector<double> RefLogpNew(const std::vector<double>& head,
                               const Transition& t) {
  std::vector<double> out;
  for (size_t r = 0; r < t.k_choice.size(); ++r) {
    double lp[2 * kNumActionChoices];
    RefRowLogProbs(&head[r * kHeadWidth], lp);
    out.push_back(lp[t.k_choice[r]] + lp[kNumActionChoices + t.d_choice[r]]);
  }
  return out;
}

/// PpoStepLoss's objective written out in double: the clipped surrogate,
/// 0.5 (V - target)^2 with V the value column's mean, and the entropy bonus.
double RefStepLoss(const std::vector<double>& head, const Transition& t,
                   double adv, double target, double weight,
                   const PpoOptions& o) {
  const auto n = static_cast<double>(t.k_choice.size());
  const std::vector<double> logp = RefLogpNew(head, t);
  double entropy = 0.0, surrogate = 0.0, diff_sum = 0.0, value = 0.0;
  for (size_t r = 0; r < t.k_choice.size(); ++r) {
    double lp[2 * kNumActionChoices];
    RefRowLogProbs(&head[r * kHeadWidth], lp);
    for (const double l : lp) entropy -= std::exp(l) * l;
    const double diff = logp[r] - t.logprob.at(static_cast<int64_t>(r), 0);
    diff_sum += diff;
    const double ratio = std::exp(diff);
    surrogate += std::min(ratio * adv,
                          std::clamp(ratio, 1.0 - o.clip, 1.0 + o.clip) * adv);
    value += head[r * kHeadWidth + kValueCol];
  }
  double actor = -surrogate / n;
  if (o.joint_ratio) {
    const double ratio = std::exp(diff_sum);
    actor = -std::min(ratio * adv,
                      std::clamp(ratio, 1.0 - o.clip, 1.0 + o.clip) * adv);
  }
  const double err = value / n - target;
  return weight * (actor + 0.5 * err * err - o.entropy_coef * entropy / n);
}

/// Builds a step whose per-node ratios (or, in joint mode, whose single
/// ratio) sit at `ratios`, away from the clip edges 0.8 and 1.2, then
/// checks the node's loss against the double reference and its gradient
/// against the reference's central differences.
void ExpectStepLossMatchesReference(bool joint, float adv,
                                    const std::vector<double>& ratios) {
  PpoOptions o;
  o.joint_ratio = joint;
  o.entropy_coef = 0.05f;
  const int64_t n = 8;
  Rng rng(joint ? 41 : 43);
  const Tensor head_val = Tensor::Randn(n, kHeadWidth, &rng);
  std::vector<double> head(head_val.data(), head_val.data() + head_val.numel());
  Transition t;
  for (int64_t r = 0; r < n; ++r) {
    t.k_choice.push_back(r % kNumActionChoices);
    t.d_choice.push_back((r / 2) % kNumActionChoices);
  }
  const std::vector<double> logp = RefLogpNew(head, t);
  t.logprob = Tensor(n, 1);
  for (int64_t r = 0; r < n; ++r) {
    const double shift =
        joint ? (r == 0 ? std::log(ratios[0]) : 0.0)
              : std::log(ratios[static_cast<size_t>(r) % ratios.size()]);
    t.logprob.at(r, 0) =
        static_cast<float>(logp[static_cast<size_t>(r)] - shift);
  }
  const float target = 0.7f, weight = 0.25f;

  tensor::Variable h(head_val, /*requires_grad=*/true);
  float actor = 0.0f;
  tensor::Variable loss = PpoStepLoss(h, t, adv, target, weight, o, &actor);
  const double want = RefStepLoss(head, t, adv, target, weight, o);
  EXPECT_NEAR(loss.value().scalar(), want,
              1e-5 * std::max(1.0, std::fabs(want)));
  loss.Backward();
  const double eps = 1e-6;
  for (size_t i = 0; i < head.size(); ++i) {
    std::vector<double> plus = head, minus = head;
    plus[i] += eps;
    minus[i] -= eps;
    const double numeric =
        (RefStepLoss(plus, t, adv, target, weight, o) -
         RefStepLoss(minus, t, adv, target, weight, o)) / (2.0 * eps);
    EXPECT_NEAR(h.grad()[static_cast<int64_t>(i)], numeric,
                1e-6 + 1e-4 * std::fabs(numeric))
        << "head element " << i / kHeadWidth << "," << i % kHeadWidth;
  }
}

TEST(PpoStepLossTest, PerNodeGradientMatchesCentralDifferences) {
  // 0.5 and 1.7 are clipped on one side each; 0.95 and 1.05 are inside.
  for (const float adv : {0.8f, -1.3f}) {
    SCOPED_TRACE(adv);
    ExpectStepLossMatchesReference(false, adv, {0.5, 0.95, 1.05, 1.7});
  }
}

TEST(PpoStepLossTest, JointRatioGradientMatchesCentralDifferences) {
  for (const float adv : {0.8f, -1.3f}) {
    for (const double ratio : {0.5, 1.05, 1.7}) {
      SCOPED_TRACE(testing::Message() << "adv " << adv << " ratio " << ratio);
      ExpectStepLossMatchesReference(true, adv, {ratio});
    }
  }
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
