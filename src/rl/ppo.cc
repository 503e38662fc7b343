#include "rl/ppo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "tensor/autograd.h"

namespace graphrare {
namespace rl {

using tensor::Tensor;
using tensor::Variable;

Status PpoOptions::Validate() const {
  if (lr <= 0.0f) return Status::InvalidArgument("lr must be positive");
  if (clip <= 0.0f || clip >= 1.0f) {
    return Status::InvalidArgument("clip must be in (0, 1)");
  }
  if (gamma < 0.0f || gamma > 1.0f) {
    return Status::InvalidArgument("gamma must be in [0, 1]");
  }
  if (update_epochs < 1) {
    return Status::InvalidArgument("update_epochs must be >= 1");
  }
  if (steps_per_update < 1) {
    return Status::InvalidArgument("steps_per_update must be >= 1");
  }
  return Status::OK();
}

namespace {

// SB3's PPO defaults (the paper keeps them).
constexpr int64_t kPolicyHidden = 64;
constexpr float kGaeLambda = 0.95f;
constexpr float kValueCoef = 0.5f;

constexpr int kA = kNumActionChoices;

/// Log-softmax of one head's kA logits: float max, double sum of float
/// exps, log partition rounded to float. Act, the loss and the value
/// bootstrap all read the head through this and StateValue.
void HeadLogSoftmax(const float* x, float* lp) {
  float mx = -std::numeric_limits<float>::infinity();
  for (int c = 0; c < kA; ++c) mx = std::max(mx, x[c]);
  double lse = 0.0;
  for (int c = 0; c < kA; ++c) lse += std::exp(x[c] - mx);
  const float log_z = mx + static_cast<float>(std::log(lse));
  for (int c = 0; c < kA; ++c) lp[c] = x[c] - log_z;
}

/// Both heads' log-probabilities of one head-output row: k in lp[0, kA),
/// d in lp[kA, 2 kA).
void RowLogProbs(const float* row, float* lp) {
  HeadLogSoftmax(row + kKLogitCol, lp);
  HeadLogSoftmax(row + kDLogitCol, lp + kA);
}

/// The state value: the compensated mean of the head's value column.
float StateValue(const Tensor& head) {
  Tensor v(head.rows(), 1);
  for (int64_t r = 0; r < head.rows(); ++r) v[r] = head.at(r, kValueCol);
  return v.Mean();
}

/// Samples one categorical choice from a head's log-probabilities.
int64_t SampleChoice(const float* lp, Rng* rng) {
  const double u = rng->Uniform();
  double acc = 0.0;
  for (int c = 0; c < kA; ++c) {
    acc += std::exp(lp[c]);
    if (u < acc) return c;
  }
  return kA - 1;
}

}  // namespace

Variable PpoStepLoss(const Variable& head, const Transition& t,
                     float advantage, float value_target, float weight,
                     const PpoOptions& options, float* actor_loss) {
  const Tensor& h = head.value();
  const int64_t n = h.rows();
  GR_CHECK_EQ(h.cols(), kHeadWidth);
  GR_CHECK_GT(n, 0);
  GR_CHECK_EQ(t.logprob.rows(), n);
  GR_CHECK_EQ(static_cast<int64_t>(t.k_choice.size()), n);
  GR_CHECK_EQ(static_cast<int64_t>(t.d_choice.size()), n);
  const float lo = 1.0f - options.clip;
  const float hi = 1.0f + options.clip;
  const double inv_n = 1.0 / static_cast<double>(n);

  // Per row: both heads' log p and p = exp(log p), each head's entropy,
  // and the surrogate's derivative by the row's joint log-probability
  // (per-node ratios; the joint ratio's is one number, found after the
  // sums). p waits in `grad`'s logit columns until the second pass.
  Tensor lp(n, 2 * kA);
  Tensor grad(n, kHeadWidth);
  std::vector<double> dlogp(static_cast<size_t>(n), 0.0);
  double entropy_sum = 0.0, surrogate_sum = 0.0;
  double logp_new_sum = 0.0, logp_old_sum = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    float* lpr = lp.row(r);
    float* pr = grad.row(r);
    RowLogProbs(h.row(r), lpr);
    for (int c = 0; c < 2 * kA; ++c) {
      pr[c] = std::exp(lpr[c]);
      entropy_sum -= static_cast<double>(pr[c]) * lpr[c];
    }
    const float logp_new = lpr[t.k_choice[static_cast<size_t>(r)]] +
                           lpr[kA + t.d_choice[static_cast<size_t>(r)]];
    const float logp_old = t.logprob.at(r, 0);
    if (options.joint_ratio) {
      logp_new_sum += logp_new;
      logp_old_sum += logp_old;
    } else {
      const float ratio = std::exp(logp_new - logp_old);
      const float surr1 = ratio * advantage;
      const float surr2 = std::min(std::max(ratio, lo), hi) * advantage;
      // Unclipped (or tied) rows carry the ratio's gradient; clipped ones
      // carry none.
      surrogate_sum += std::min(surr1, surr2);
      if (surr1 <= surr2) {
        dlogp[static_cast<size_t>(r)] =
            -static_cast<double>(advantage) * ratio * inv_n;
      }
    }
  }
  double actor;
  if (options.joint_ratio) {
    // Strict SB3 semantics: a single importance ratio per step.
    const double ratio = std::exp(logp_new_sum - logp_old_sum);
    const double surr1 = ratio * advantage;
    const double surr2 = std::min(std::max(ratio, static_cast<double>(lo)),
                                  static_cast<double>(hi)) *
                         advantage;
    actor = -std::min(surr1, surr2);
    const double d = surr1 <= surr2 ? -advantage * ratio : 0.0;
    std::fill(dlogp.begin(), dlogp.end(), d);
  } else {
    actor = -surrogate_sum * inv_n;
  }
  const double value_err =
      static_cast<double>(StateValue(h)) - static_cast<double>(value_target);
  const double entropy = entropy_sum * inv_n;  // both heads' mean entropies
  const double total = actor + kValueCoef * value_err * value_err -
                       options.entropy_coef * entropy;
  *actor_loss = static_cast<float>(actor);

  // d(loss)/d(head) per row. For a head with log p and p, taken choice a
  // and row entropy H = -sum p log p:
  //   d(logp_new)/dx_c = [c == a] - p_c
  //   d(H)/dx_c = -p_c (log p_c + H)
  // and the value column shares d(MSE)/dV over its N rows.
  const double ent_scale = options.entropy_coef * inv_n;
  const double value_grad = weight * 2.0 * kValueCoef * value_err * inv_n;
  for (int64_t r = 0; r < n; ++r) {
    const float* lpr = lp.row(r);
    float* gr = grad.row(r);
    const double dl = dlogp[static_cast<size_t>(r)];
    const int64_t taken[2] = {t.k_choice[static_cast<size_t>(r)],
                              t.d_choice[static_cast<size_t>(r)]};
    for (int head_i = 0; head_i < 2; ++head_i) {
      const float* lph = lpr + head_i * kA;
      float* gh = gr + head_i * kA;
      double row_entropy = 0.0;
      for (int c = 0; c < kA; ++c) {
        row_entropy -= static_cast<double>(gh[c]) * lph[c];
      }
      for (int c = 0; c < kA; ++c) {
        const double p = gh[c];
        const double onehot = c == taken[head_i] ? 1.0 : 0.0;
        gh[c] = static_cast<float>(
            weight * (dl * (onehot - p) +
                      ent_scale * p * (lph[c] + row_entropy)));
      }
    }
    gr[kValueCol] = static_cast<float>(value_grad);
  }

  return tensor::MakeOpNode(
      Tensor::Scalar(static_cast<float>(weight * total)), {head},
      [grad = std::move(grad)](tensor::AutogradNode* node) {
        if (!node->parents[0]->requires_grad) return;
        node->parents[0]->EnsureGrad()->AxpyInPlace(node->grad.scalar(),
                                                    grad);
      });
}

PpoAgent::PpoAgent(int64_t obs_dim, const PpoOptions& options)
    : options_(options), rng_(options.seed) {
  GR_CHECK_OK(options.Validate());
  Rng init_rng(options.seed ^ 0xC0FFEEULL);
  policy_ = std::make_unique<ActorCriticPolicy>(obs_dim, kPolicyHidden,
                                                &init_rng);
  nn::Adam::Options adam;
  adam.lr = options.lr;
  adam.weight_decay = 0.0f;
  optimizer_ = std::make_unique<nn::Adam>(policy_->Parameters(), adam);
}

ActionSample PpoAgent::Act(const Tensor& obs) {
  GR_CHECK(!pending_reward_)
      << "Act() called twice without StoreReward() in between";
  const Variable out =
      policy_->Forward(Variable(obs, /*requires_grad=*/false));
  const Tensor& head = out.value();
  const int64_t n = head.rows();
  Tensor lp(n, 2 * kA);
  for (int64_t r = 0; r < n; ++r) RowLogProbs(head.row(r), lp.row(r));

  // Every node's k choice, then every node's d choice: one RNG draw each.
  Transition t;
  t.obs = obs;
  t.k_choice.reserve(static_cast<size_t>(n));
  t.d_choice.reserve(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    t.k_choice.push_back(SampleChoice(lp.row(r), &rng_));
  }
  for (int64_t r = 0; r < n; ++r) {
    t.d_choice.push_back(SampleChoice(lp.row(r) + kA, &rng_));
  }
  t.logprob = Tensor(n, 1);
  for (int64_t r = 0; r < n; ++r) {
    t.logprob.at(r, 0) = lp.at(r, t.k_choice[static_cast<size_t>(r)]) +
                         lp.at(r, kA + t.d_choice[static_cast<size_t>(r)]);
  }
  t.value = StateValue(head);

  ActionSample sample;
  sample.delta_k.reserve(t.k_choice.size());
  sample.delta_d.reserve(t.d_choice.size());
  for (int64_t c : t.k_choice) sample.delta_k.push_back(static_cast<int>(c) - 1);
  for (int64_t c : t.d_choice) sample.delta_d.push_back(static_cast<int>(c) - 1);

  buffer_.push_back(std::move(t));
  pending_reward_ = true;
  return sample;
}

void PpoAgent::StoreReward(double reward) {
  GR_CHECK(pending_reward_) << "StoreReward() without a preceding Act()";
  buffer_.back().reward = reward;
  pending_reward_ = false;
}

bool PpoAgent::ReadyToUpdate() const {
  return !pending_reward_ &&
         static_cast<int>(buffer_.size()) >= options_.steps_per_update;
}

void PpoAgent::ComputeAdvantages(double last_value,
                                 std::vector<double>* advantages,
                                 std::vector<double>* returns) const {
  const size_t n = buffer_.size();
  advantages->assign(n, 0.0);
  returns->assign(n, 0.0);
  double next_adv = 0.0;
  double next_value = last_value;
  for (size_t i = n; i-- > 0;) {
    const double delta = buffer_[i].reward +
                         options_.gamma * next_value - buffer_[i].value;
    next_adv = delta + options_.gamma * kGaeLambda * next_adv;
    (*advantages)[i] = next_adv;
    next_value = buffer_[i].value;
    (*returns)[i] = (*advantages)[i] + buffer_[i].value;
  }
}

double PpoAgent::Update(const Tensor& last_value_obs) {
  GR_CHECK(!pending_reward_) << "Update() with a reward still pending";
  GR_CHECK(!buffer_.empty());

  const double last_value = StateValue(
      policy_->Forward(Variable(last_value_obs, /*requires_grad=*/false))
          .value());

  std::vector<double> advantages, returns;
  ComputeAdvantages(last_value, &advantages, &returns);

  if (advantages.size() > 1) {
    double mean = 0.0;
    for (double a : advantages) mean += a;
    mean /= static_cast<double>(advantages.size());
    double var = 0.0;
    for (double a : advantages) var += (a - mean) * (a - mean);
    var /= static_cast<double>(advantages.size());
    const double stddev = std::sqrt(std::max(var, 1e-12));
    for (double& a : advantages) a = (a - mean) / (stddev + 1e-8);
  }

  const float inv_steps = 1.0f / static_cast<float>(buffer_.size());
  double final_actor_loss = 0.0;
  for (int epoch = 0; epoch < options_.update_epochs; ++epoch) {
    policy_->ZeroGrad();
    double epoch_actor_loss = 0.0;
    for (size_t i = 0; i < buffer_.size(); ++i) {
      const Transition& t = buffer_[i];
      // Five tape nodes: two fused tanh layers, the head's MatMul and
      // AddBias, and the loss. Each step's gradient enters at weight
      // 1 / T, averaging over the rollout.
      float actor_loss = 0.0f;
      PpoStepLoss(policy_->Forward(Variable(t.obs, /*requires_grad=*/false)),
                  t, static_cast<float>(advantages[i]),
                  static_cast<float>(returns[i]), inv_steps, options_,
                  &actor_loss)
          .Backward();
      epoch_actor_loss += actor_loss;
    }
    optimizer_->Step();
    final_actor_loss = epoch_actor_loss / static_cast<double>(buffer_.size());
  }

  buffer_.clear();
  ++num_updates_;
  return final_actor_loss;
}

}  // namespace rl
}  // namespace graphrare
