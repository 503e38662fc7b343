// Copyright 2026 The GraphRARE Authors.
//
// Evaluation metrics: accuracy (the paper's main metric) and one-vs-rest
// macro AUC (the alternative reward of the Table V ablation).

#ifndef GRAPHRARE_NN_METRICS_H_
#define GRAPHRARE_NN_METRICS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace graphrare {
namespace nn {

/// Fraction of rows in `index` whose argmax logit equals the label.
/// labels is the *full* label vector (indexed by node id).
double Accuracy(const tensor::Tensor& logits,
                const std::vector<int64_t>& labels,
                const std::vector<int64_t>& index);

/// One-vs-rest macro-averaged ROC AUC over the rows in `index`. Classes
/// absent from the subset are skipped. Returns 0.5 when undefined.
double MacroAucOvr(const tensor::Tensor& logits,
                   const std::vector<int64_t>& labels,
                   const std::vector<int64_t>& index, int64_t num_classes);

}  // namespace nn
}  // namespace graphrare

#endif  // GRAPHRARE_NN_METRICS_H_
