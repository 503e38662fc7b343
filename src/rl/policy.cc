#include "rl/policy.h"

#include <algorithm>
#include <utility>

namespace graphrare {
namespace rl {

using tensor::Tensor;

ActorCriticPolicy::ActorCriticPolicy(int64_t obs_dim, int64_t hidden,
                                     Rng* rng) {
  fc1_ = std::make_unique<nn::Linear>(obs_dim, hidden, rng);
  fc2_ = std::make_unique<nn::Linear>(hidden, hidden, rng);
  // Three Glorot blocks drawn in the order and at the shapes of separate
  // k, d and value heads, placed side by side: the initial policy is the
  // three-head one, bit for bit.
  const Tensor blocks[] = {
      Tensor::GlorotUniform(hidden, kNumActionChoices, rng),
      Tensor::GlorotUniform(hidden, kNumActionChoices, rng),
      Tensor::GlorotUniform(hidden, 1, rng)};
  Tensor head(hidden, kHeadWidth);
  int64_t col = 0;
  for (const Tensor& b : blocks) {
    for (int64_t r = 0; r < hidden; ++r) {
      std::copy(b.row(r), b.row(r) + b.cols(), head.row(r) + col);
    }
    col += b.cols();
  }
  head_ = std::make_unique<nn::Linear>(std::move(head));
  RegisterChild("fc1", fc1_.get());
  RegisterChild("fc2", fc2_.get());
  RegisterChild("head", head_.get());
}

tensor::Variable ActorCriticPolicy::Forward(
    const tensor::Variable& obs) const {
  return head_->Forward(fc2_->ForwardTanh(fc1_->ForwardTanh(obs)));
}

}  // namespace rl
}  // namespace graphrare
