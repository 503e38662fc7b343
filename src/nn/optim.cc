#include "nn/optim.h"

#include <cmath>

namespace graphrare {
namespace nn {
namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

}  // namespace

Adam::Adam(std::vector<tensor::Variable> params, const Options& options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i];
    if (!p.has_grad()) continue;
    const tensor::Tensor& g = p.grad();
    tensor::Tensor* w = p.mutable_value();
    tensor::Tensor& m = m_[i];
    tensor::Tensor& v = v_[i];
    const int64_t n = w->numel();
    float* pw = w->data();
    const float* pg = g.data();
    float* pm = m.data();
    float* pv = v.data();
    for (int64_t j = 0; j < n; ++j) {
      const float grad = pg[j] + options_.weight_decay * pw[j];
      pm[j] = kBeta1 * pm[j] + (1.0f - kBeta1) * grad;
      pv[j] = kBeta2 * pv[j] + (1.0f - kBeta2) * grad * grad;
      const float m_hat = pm[j] / bc1;
      const float v_hat = pv[j] / bc2;
      pw[j] -= options_.lr * m_hat / (std::sqrt(v_hat) + kEps);
    }
  }
}

}  // namespace nn
}  // namespace graphrare
