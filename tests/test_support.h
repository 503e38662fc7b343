// Test-only code shared by the suites: the unfused tape ops that the fused
// kernels are checked against, numerical gradient checking, and the
// assertion helpers over tensors, CSR matrices and graphs. Nothing in the
// library calls any of it.
//
// The library ships the fused kernels (LogSoftmaxNll behind CrossEntropy,
// GatSegmentAttention); the ops here are the chains those kernels replace,
// kept as bitwise oracles. They round exactly like the library ops they
// stand beside because every project target compiles with
// -ffp-contract=off (see the root CMakeLists.txt).

#ifndef GRAPHRARE_TESTS_TEST_SUPPORT_H_
#define GRAPHRARE_TESTS_TEST_SUPPORT_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "tensor/autograd.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace graphrare {
namespace testing_ref {

// -- Unfused tape ops ------------------------------------------------------

/// a + c elementwise.
tensor::Variable AddScalar(const tensor::Variable& a, float c);
tensor::Variable LeakyRelu(const tensor::Variable& a,
                           float negative_slope = 0.2f);
/// Natural log; inputs must be positive.
tensor::Variable Log(const tensor::Variable& a);
/// Negative log-likelihood over *all* rows of logp (m, c) with integer
/// labels (size m): -(1/m) sum_i logp[i, labels[i]]. Returns a scalar.
tensor::Variable NllLoss(const tensor::Variable& logp,
                         const std::vector<int64_t>& labels);
/// Y[i,:] = X[idx[i],:]. Backward scatter-adds.
tensor::Variable GatherRows(const tensor::Variable& x,
                            std::vector<int64_t> idx);
/// Y (n,f) with Y[idx[i],:] += X[i,:] (X is (e,f)).
tensor::Variable ScatterAddRows(const tensor::Variable& x,
                                std::vector<int64_t> idx, int64_t num_rows);
/// Y[i,:] = X[i,:] * s[i] with s shape (m,1).
tensor::Variable RowScale(const tensor::Variable& x,
                          const tensor::Variable& s);
/// Softmax of scores (e,1) within segments given by seg[i] in [0, n).
/// Segments need not be contiguous.
tensor::Variable SegmentSoftmax(const tensor::Variable& scores,
                                std::vector<int64_t> seg,
                                int64_t num_segments);

// -- Gradient checking -----------------------------------------------------

/// Result of a gradient check on a single input.
struct GradCheckResult {
  bool ok = true;
  float max_abs_err = 0.0f;
  float max_rel_err = 0.0f;
  int64_t worst_index = -1;
};

/// Checks d f(inputs) / d inputs[check_index] against central differences.
///
/// `f` must build the graph from the given leaf variables and return a
/// scalar Variable. All inputs must require grad. Uses double-sided
/// differences with step `eps` and tolerance `atol + rtol * |numeric|`.
GradCheckResult CheckGradient(
    const std::function<tensor::Variable(const std::vector<tensor::Variable>&)>&
        f,
    std::vector<tensor::Variable>* inputs, size_t check_index,
    float eps = 1e-3f, float atol = 1e-2f, float rtol = 5e-2f);

// -- Assertion helpers -----------------------------------------------------

/// Same shape and |a - b| <= atol + rtol * |b| elementwise.
bool AllClose(const tensor::Tensor& a, const tensor::Tensor& b,
              float atol = 1e-5f, float rtol = 1e-4f);
float MaxAbs(const tensor::Tensor& t);
/// True if any element is NaN or Inf.
bool HasNonFinite(const tensor::Tensor& t);
tensor::Tensor Transposed(const tensor::Tensor& t);

/// Dense copy of a CSR matrix.
tensor::Tensor ToDense(const tensor::CsrMatrix& m);
/// Element lookup (binary search within the row). Zero when absent.
float At(const tensor::CsrMatrix& m, int64_t r, int64_t c);

/// Nodes at BFS distance <= max_hops from v, excluding v itself. Sorted
/// ascending.
std::vector<int64_t> KHopNeighbors(const graph::Graph& g, int64_t v,
                                   int max_hops);

// -- Cross-commit pins -----------------------------------------------------

/// FNV-1a 64 over the exact bits of what a test feeds it. A pin test
/// compares Hex() against a value recorded at an earlier commit, so the
/// same bytes must come out of every later commit that claims to keep
/// them; a change that alters them on purpose updates the value and says
/// so.
class BitDigest {
 public:
  void AddBytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void AddU64(uint64_t v) { AddBytes(&v, sizeof(v)); }
  void AddFloat(float v) { AddBytes(&v, sizeof(v)); }
  void AddDouble(double v) { AddBytes(&v, sizeof(v)); }
  void AddDoubles(const std::vector<double>& v) {
    AddU64(v.size());
    for (const double x : v) AddDouble(x);
  }
  void AddTensor(const tensor::Tensor& t) {
    AddU64(static_cast<uint64_t>(t.rows()));
    AddU64(static_cast<uint64_t>(t.cols()));
    AddBytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
  }
  void AddEdges(const std::vector<graph::Edge>& edges) {
    AddU64(edges.size());
    for (const auto& [u, v] : edges) {
      AddU64(static_cast<uint64_t>(u));
      AddU64(static_cast<uint64_t>(v));
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace testing_ref
}  // namespace graphrare

#endif  // GRAPHRARE_TESTS_TEST_SUPPORT_H_
