// Copyright 2026 The GraphRARE Authors.
//
// Differentiable operations over Variable. Every op returns a fresh tape
// node whose backward accumulates into the parents' gradients. Shapes follow
// the library convention: everything is 2-D, vectors are (n,1) columns,
// scalars are (1,1). The unfused chains that the fused kernels below are
// bitwise equal to (LogSoftmaxRows, GatherRows, NllLoss, Tanh,
// SegmentSoftmax, ...) are test oracles and live in tests/test_support.h.

#ifndef GRAPHRARE_TENSOR_OPS_H_
#define GRAPHRARE_TENSOR_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "tensor/autograd.h"
#include "tensor/sparse.h"

namespace graphrare {
namespace tensor {
namespace ops {

// -- Arithmetic -----------------------------------------------------------

/// Elementwise a + b (same shape).
Variable Add(const Variable& a, const Variable& b);
/// Elementwise a - b (same shape).
Variable Sub(const Variable& a, const Variable& b);
/// a + bias, bias shape (1, n) broadcast over rows of a (m, n).
Variable AddBias(const Variable& a, const Variable& bias);
/// Fused relu(a + bias): one pass forward, and one backward sweep that
/// produces both d_a and the bias column sums. Bitwise identical to
/// Relu(AddBias(a, bias)) — the fusion only removes the intermediate tape
/// node and its buffers from the dense-layer hot path.
Variable AddBiasRelu(const Variable& a, const Variable& bias);
/// c * a for a compile-time constant c.
Variable Scale(const Variable& a, float c);

// -- Matrix products ------------------------------------------------------

/// Dense matmul (m,k)x(k,n) -> (m,n).
Variable MatMul(const Variable& a, const Variable& b);
/// Fused tanh(x w + b), bias shape (1, n): one tape node for the
/// MatMul -> AddBias -> Tanh chain. Backward forms d = g * (1 - y^2) once
/// and feeds it to MatMulTransB (d_x), MatMulTransA (d_w) and ColSum (d_b).
/// Forward and every gradient are bitwise the chain's.
Variable LinearTanh(const Variable& x, const Variable& w, const Variable& b);
/// Sparse-dense product y = S x, S fixed (no gradient flows into S).
/// The CSR matrix is captured by shared_ptr; its transpose is cached inside.
Variable SpMM(std::shared_ptr<const CsrMatrix> s, const Variable& x);

// -- Nonlinearities -------------------------------------------------------

Variable Relu(const Variable& a);
Variable Elu(const Variable& a, float alpha = 1.0f);
Variable Sigmoid(const Variable& a);

/// Inverted dropout. Identity when !training or p == 0.
Variable Dropout(const Variable& a, float p, bool training, Rng* rng);

// -- Softmax family -------------------------------------------------------

/// Fused log-softmax + NLL over the rows of `logits` selected by `index`
/// (labels[i] is the class of row index[i]); mean reduction over the
/// selection. One pass per selected row — the (m, c) log-probability matrix
/// of the LogSoftmaxRows/GatherRows/NllLoss chain is never materialised and
/// the backward touches only the selected rows. For distinct indices (every
/// real call site: train/seed node sets) the loss and gradients match that
/// chain bitwise; duplicate indices still accumulate correctly (one
/// occurrence at a time, in index order) but may differ from the chain in
/// the last ulp, since the chain folds duplicates into one row update.
/// CrossEntropy routes here.
Variable LogSoftmaxNll(const Variable& logits, std::vector<int64_t> index,
                       std::vector<int64_t> labels);

// -- Reductions -----------------------------------------------------------

/// Sum of all elements -> scalar.
Variable SumAll(const Variable& a);

// -- Shape / indexing -----------------------------------------------------

/// Horizontal concatenation [a1 | a2 | ...]; all inputs share row count.
Variable ConcatCols(const std::vector<Variable>& parts);
/// Y = s * X where s is a trainable (1,1) scalar Variable.
Variable ScaleByScalar(const Variable& x, const Variable& s);

// -- Segment operations (edge-level GNN math) -----------------------------

/// Fused GAT attention edge kernel. Computes, for per-node features h
/// (n, f) and per-node attention scores sl / sr (n, 1):
///
///   e_i     = leaky_relu(sl[src[i]] + sr[dst[i]], negative_slope)
///   alpha_i = segment_softmax(e, dst)_i          (optionally dropped out)
///   out[v]  = sum_{i : dst[i] == v} alpha_i * h[src[i], :]
///
/// in one pass over the edges, replacing the GatherRows -> Add -> LeakyRelu
/// -> SegmentSoftmax -> (Dropout) -> GatherRows -> RowScale ->
/// ScatterAddRows chain. Forward and backward are bitwise identical to that
/// chain: per-edge arithmetic uses the same expressions, all segment
/// reductions and scatter accumulations run in the same ascending-edge
/// order, and dropout (applied when `training` and dropout_p > 0) draws
/// exactly one Bernoulli(dropout_p) per edge in edge order, so the RNG
/// stream matches ops::Dropout on the (e, 1) alpha tensor. Only the (e, 1)
/// attention weights and dropout mask are saved for backward — none of the
/// chain's (e, f) edge-message intermediates are materialised or taped.
Variable GatSegmentAttention(const Variable& h, const Variable& sl,
                             const Variable& sr, std::vector<int64_t> src,
                             std::vector<int64_t> dst, int64_t num_nodes,
                             float negative_slope, float dropout_p,
                             bool training, Rng* rng);

// -- Convenience ----------------------------------------------------------

/// Cross-entropy over the rows of `logits` selected by `index` with labels
/// `labels` (labels[i] is the class of row index[i]). Mean reduction.
Variable CrossEntropy(const Variable& logits, const std::vector<int64_t>& index,
                      const std::vector<int64_t>& labels);

}  // namespace ops
}  // namespace tensor
}  // namespace graphrare

#endif  // GRAPHRARE_TENSOR_OPS_H_
