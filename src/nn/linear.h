// Copyright 2026 The GraphRARE Authors.
//
// Fully connected layer, with a sparse-input fast path for the first layer
// of models fed bag-of-words features.

#ifndef GRAPHRARE_NN_LINEAR_H_
#define GRAPHRARE_NN_LINEAR_H_

#include <memory>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace graphrare {
namespace nn {

/// y = x W + b with Glorot-uniform W.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool use_bias = true)
      : use_bias_(use_bias) {
    weight_ = RegisterParameter(
        "weight", tensor::Tensor::GlorotUniform(in_features, out_features, rng));
    if (use_bias_) {
      bias_ = RegisterParameter("bias",
                                tensor::Tensor::Zeros(1, out_features));
    }
  }

  tensor::Variable Forward(const tensor::Variable& x) const {
    tensor::Variable y = tensor::ops::MatMul(x, weight_);
    if (use_bias_) y = tensor::ops::AddBias(y, bias_);
    return y;
  }

  /// y = relu(x W + b) through the fused bias+ReLU kernel: same bits as
  /// Relu(Forward(x)), one fewer tape node and backward sweep. Models call
  /// this wherever an activation directly follows the affine layer.
  tensor::Variable ForwardRelu(const tensor::Variable& x) const {
    if (!use_bias_) return tensor::ops::Relu(Forward(x));
    return tensor::ops::AddBiasRelu(tensor::ops::MatMul(x, weight_), bias_);
  }

  /// Sparse-input forward: y = X_sparse W + b. Gradients flow into W only
  /// (the data matrix is constant), which is exactly the first-layer case.
  tensor::Variable ForwardSparse(
      const std::shared_ptr<const tensor::CsrMatrix>& x) const {
    tensor::Variable y = tensor::ops::SpMM(x, weight_);
    if (use_bias_) y = tensor::ops::AddBias(y, bias_);
    return y;
  }

  /// Fused relu(X_sparse W + b); see ForwardRelu.
  tensor::Variable ForwardSparseRelu(
      const std::shared_ptr<const tensor::CsrMatrix>& x) const {
    if (!use_bias_) return tensor::ops::Relu(ForwardSparse(x));
    return tensor::ops::AddBiasRelu(tensor::ops::SpMM(x, weight_), bias_);
  }

 private:
  tensor::Variable weight_;
  tensor::Variable bias_;
  bool use_bias_;
};

}  // namespace nn
}  // namespace graphrare

#endif  // GRAPHRARE_NN_LINEAR_H_
