#include "rl/ppo.h"

#include <algorithm>
#include <cmath>

#include "tensor/ops.h"

namespace graphrare {
namespace rl {

namespace ops = tensor::ops;
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

/// Samples one categorical choice per row from log-probabilities.
void SampleRows(const Tensor& logp, Rng* rng, std::vector<int64_t>* choices) {
  choices->clear();
  choices->reserve(static_cast<size_t>(logp.rows()));
  for (int64_t r = 0; r < logp.rows(); ++r) {
    const float* p = logp.row(r);
    double u = rng->Uniform();
    int64_t pick = logp.cols() - 1;
    double acc = 0.0;
    for (int64_t c = 0; c < logp.cols(); ++c) {
      acc += std::exp(p[c]);
      if (u < acc) {
        pick = c;
        break;
      }
    }
    choices->push_back(pick);
  }
}

/// Mean per-row categorical entropy of a logits Variable, as a graph node.
Variable MeanEntropy(const Variable& logits) {
  Variable p = ops::SoftmaxRows(logits);
  Variable lp = ops::LogSoftmaxRows(logits);
  return ops::Neg(ops::MeanAll(ops::RowSumCols(ops::Mul(p, lp))));
}

}  // namespace

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
  Variable obs_var(obs, /*requires_grad=*/false);
  PolicyOutput out = policy_->Forward(obs_var);

  const Tensor k_logp = ops::LogSoftmaxRows(out.k_logits).value();
  const Tensor d_logp = ops::LogSoftmaxRows(out.d_logits).value();

  Transition t;
  t.obs = obs;
  SampleRows(k_logp, &rng_, &t.k_choice);
  SampleRows(d_logp, &rng_, &t.d_choice);
  t.logprob = Tensor(obs.rows(), 1);
  for (int64_t i = 0; i < obs.rows(); ++i) {
    t.logprob.at(i, 0) = k_logp.at(i, t.k_choice[static_cast<size_t>(i)]) +
                         d_logp.at(i, t.d_choice[static_cast<size_t>(i)]);
  }
  t.value = out.value.value().scalar();

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

  Variable last_obs_var(last_value_obs, /*requires_grad=*/false);
  const double last_value =
      policy_->Forward(last_obs_var).value.value().scalar();

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
      const float adv = static_cast<float>(advantages[i]);
      Variable obs_var(t.obs, /*requires_grad=*/false);
      PolicyOutput out = policy_->Forward(obs_var);

      Variable k_logp = ops::GatherCols(ops::LogSoftmaxRows(out.k_logits),
                                        t.k_choice);
      Variable d_logp = ops::GatherCols(ops::LogSoftmaxRows(out.d_logits),
                                        t.d_choice);
      Variable logp_new = ops::Add(k_logp, d_logp);  // (N,1)
      Variable old_logp(t.logprob, /*requires_grad=*/false);

      Variable actor_loss;
      if (options_.joint_ratio) {
        // Strict SB3 semantics: a single importance ratio per step.
        Variable ratio =
            ops::Exp(ops::Sub(ops::SumAll(logp_new), ops::SumAll(old_logp)));
        Variable surr1 = ops::Scale(ratio, adv);
        Variable surr2 = ops::Scale(
            ops::Clamp(ratio, 1.0f - options_.clip, 1.0f + options_.clip),
            adv);
        actor_loss = ops::Neg(ops::Min(surr1, surr2));
      } else {
        // Per-node factorised ratios, averaged.
        Variable ratio = ops::Exp(ops::Sub(logp_new, old_logp));
        Variable surr1 = ops::Scale(ratio, adv);
        Variable surr2 = ops::Scale(
            ops::Clamp(ratio, 1.0f - options_.clip, 1.0f + options_.clip),
            adv);
        actor_loss = ops::Neg(ops::MeanAll(ops::Min(surr1, surr2)));
      }

      Variable value_loss = ops::MseLoss(
          out.value,
          Variable(Tensor::Scalar(static_cast<float>(returns[i])), false));
      Variable entropy =
          ops::Add(MeanEntropy(out.k_logits), MeanEntropy(out.d_logits));

      Variable total = ops::Add(
          actor_loss,
          ops::Sub(ops::Scale(value_loss, kValueCoef),
                   ops::Scale(entropy, options_.entropy_coef)));
      // Average gradients over the rollout: scale each step's contribution.
      ops::Scale(total, inv_steps).Backward();
      epoch_actor_loss += actor_loss.value().scalar();
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
