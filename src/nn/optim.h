// Copyright 2026 The GraphRARE Authors.
//
// The Adam optimizer over parameter Variables. State is keyed by the
// underlying autograd node, so the same optimizer instance survives
// arbitrarily many forward graphs.

#ifndef GRAPHRARE_NN_OPTIM_H_
#define GRAPHRARE_NN_OPTIM_H_

#include <vector>

#include "tensor/autograd.h"

namespace graphrare {
namespace nn {

/// Adam (Kingma & Ba) with decoupled-style L2 weight decay added to the
/// gradient (classic Adam + weight decay, as used by the paper's setup).
/// β₁ = 0.9, β₂ = 0.999 and ε = 1e-8 are the library defaults the paper
/// leaves untuned; they are constants in optim.cc.
class Adam {
 public:
  struct Options {
    float lr = 0.05f;           // paper Sec. V-C initial learning rate
    float weight_decay = 5e-5f;  // paper: {5e-5, 5e-6}
  };

  Adam(std::vector<tensor::Variable> params, const Options& options);

  /// Applies one update using the gradients currently accumulated on the
  /// parameters. Parameters without a gradient are skipped.
  void Step();

 private:
  std::vector<tensor::Variable> params_;
  Options options_;
  int64_t t_ = 0;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
};

}  // namespace nn
}  // namespace graphrare

#endif  // GRAPHRARE_NN_OPTIM_H_
