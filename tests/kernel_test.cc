// Copyright 2026 The GraphRARE Authors.
//
// Kernel equivalence suite (ctest labels: tier1, kernels). Pins the numeric
// contracts of the blocked/register-tiled dense kernels:
//   * MatMul / MatMulTransB produce exactly the plain-triple-loop result
//     (every C[i,j] accumulates over the full k extent in ascending order),
//     on ragged shapes included.
//   * MatMulTransA / ColSum follow their fixed-block reduction specs
//     (tensor::kTransAKBlock / tensor::kColSumRowBlock), so the oracle here
//     is the spec written as a naive loop.
//   * Results are invariant to the OpenMP thread count.
//   * The fused ops (AddBiasRelu, LinearTanh, LogSoftmaxNll behind
//     CrossEntropy) match their unfused chains and pass numeric grad
//     checks.
//   * The tensor buffer pool recycles buffers without aliasing live data.
//   * The owned vector tanh (TanhInPlace, behind ops::LinearTanh) is
//     bitwise the scalar fdlibm transcription in tests/tanh_reference.h
//     and within 2.5 ULP of double-precision tanh.
//   * The dropout masks (ops::Dropout, the GAT attention dropout) and
//     Adam::Step are bitwise their scalar loops, kept here as references,
//     and dropout leaves the RNG stream where the Bernoulli loop did.
//
// "Exact" comparisons use float equality (== treats +0 and -0 as equal,
// which is the one place the zero-skip in the naive path may differ).

#include "tensor/tensor.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/optim.h"
#include "tanh_reference.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "tensor/vector_math.h"
#include "test_support.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace graphrare {
namespace tensor {
namespace {

namespace ref = testing_ref;

// ------------------------------------------------------------------ oracles

/// Plain ikj triple loop, no zero skip: ascending-k accumulation per element.
Tensor RefMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c(m, n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a.at(i, kk);
      for (int64_t j = 0; j < n; ++j) {
        c.at(i, j) += av * b.at(kk, j);
      }
    }
  }
  return c;
}

/// The MatMulTransA contract: fixed kTransAKBlock k-blocks, kij loop per
/// block, partials added in ascending block order.
Tensor RefTransA(const Tensor& a, const Tensor& b) {
  const int64_t k = a.rows(), m = a.cols(), n = b.cols();
  Tensor c(m, n);
  for (int64_t k0 = 0; k0 < k; k0 += kTransAKBlock) {
    const int64_t k1 = std::min(k, k0 + kTransAKBlock);
    Tensor partial(m, n);
    for (int64_t kk = k0; kk < k1; ++kk) {
      for (int64_t i = 0; i < m; ++i) {
        const float av = a.at(kk, i);
        for (int64_t j = 0; j < n; ++j) {
          partial.at(i, j) += av * b.at(kk, j);
        }
      }
    }
    for (int64_t i = 0; i < m * n; ++i) c[i] += partial[i];
  }
  return c;
}

/// Row-dot-products: ascending-k accumulation per element.
Tensor RefTransB(const Tensor& a, const Tensor& b) {
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c(m, n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(j, kk);
      c.at(i, j) = acc;
    }
  }
  return c;
}

/// The ColSum contract: fixed kColSumRowBlock row blocks in ascending order.
Tensor RefColSum(const Tensor& a) {
  Tensor out(1, a.cols());
  for (int64_t r0 = 0; r0 < a.rows(); r0 += kColSumRowBlock) {
    const int64_t r1 = std::min(a.rows(), r0 + kColSumRowBlock);
    Tensor partial(1, a.cols());
    for (int64_t r = r0; r < r1; ++r) {
      for (int64_t c = 0; c < a.cols(); ++c) partial[c] += a.at(r, c);
    }
    for (int64_t c = 0; c < a.cols(); ++c) out[c] += partial[c];
  }
  return out;
}

void ExpectSameBits(const Tensor& got, const Tensor& want,
                    const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i])
        << what << " differs at flat index " << i << " (" << got.rows() << "x"
        << got.cols() << ")";
  }
}

/// Random matrix with exact-zero rows/columns sprinkled in, to exercise the
/// zero-skip paths and ragged padding.
Tensor TestMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Randn(rows, cols, &rng);
  for (int64_t i = 0; i < t.numel(); i += 7) t[i] = 0.0f;
  if (rows > 2) {
    for (int64_t c = 0; c < cols; ++c) t.at(rows / 2, c) = 0.0f;
  }
  return t;
}

// ------------------------------------------------- blocked GEMM equivalence

struct GemmShape {
  int64_t m, k, n;
};

// Ragged shapes: unit dims, primes, micro-tile remainders, above and below
// the small-GEMM cutoff, and k spanning multiple TransA blocks.
const GemmShape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {1, 1, 9},     {5, 1, 3},    {1, 300, 1},
    {17, 31, 13}, {64, 64, 64}, {65, 67, 33},  {4, 300, 8},  {128, 96, 64},
    {127, 253, 131}, {3, 1000, 5}, {40, 520, 24}, {256, 256, 16},
};

TEST(BlockedGemm, MatMulMatchesNaiveOnRaggedShapes) {
  for (const auto& s : kShapes) {
    const Tensor a = TestMatrix(s.m, s.k, /*seed=*/s.m * 131 + s.k);
    const Tensor b = TestMatrix(s.k, s.n, /*seed=*/s.k * 17 + s.n);
    ExpectSameBits(MatMul(a, b), RefMatMul(a, b), "MatMul");
  }
}

TEST(BlockedGemm, TransAMatchesFixedBlockSpec) {
  for (const auto& s : kShapes) {
    // Reuse (m, k, n) as (k, m, n): A is (k x m), B is (k x n).
    const Tensor a = TestMatrix(s.k, s.m, /*seed=*/s.k * 7 + s.m);
    const Tensor b = TestMatrix(s.k, s.n, /*seed=*/s.n * 13 + s.k);
    ExpectSameBits(MatMulTransA(a, b), RefTransA(a, b), "MatMulTransA");
  }
}

TEST(BlockedGemm, TransBMatchesNaiveOnRaggedShapes) {
  for (const auto& s : kShapes) {
    const Tensor a = TestMatrix(s.m, s.k, /*seed=*/s.m * 3 + s.k);
    const Tensor b = TestMatrix(s.n, s.k, /*seed=*/s.n * 31 + s.k);
    ExpectSameBits(MatMulTransB(a, b), RefTransB(a, b), "MatMulTransB");
  }
}

TEST(BlockedGemm, ZeroSizedOperands) {
  const Tensor a(0, 5);
  const Tensor b(5, 3);
  EXPECT_EQ(MatMul(a, b).rows(), 0);
  EXPECT_EQ(MatMul(a, b).cols(), 3);
  const Tensor c(4, 0);
  const Tensor d(0, 3);
  const Tensor prod = MatMul(c, d);  // (4 x 0) * (0 x 3) -> zeros
  ExpectSameBits(prod, Tensor(4, 3), "empty-k MatMul");
}

TEST(BlockedGemm, ColSumMatchesFixedBlockSpec) {
  for (const int64_t rows : {1L, 7L, 1024L, 1025L, 3000L}) {
    const Tensor a = TestMatrix(rows, 33, /*seed=*/rows);
    ExpectSameBits(ColSum(a), RefColSum(a), "ColSum");
  }
}

// ------------------------------------------------- thread-count invariance

#ifdef _OPENMP
template <typename Fn>
void ExpectThreadCountInvariant(Fn&& fn, const char* what) {
  const int old_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const Tensor t1 = fn();
  omp_set_num_threads(4);
  const Tensor t4 = fn();
  omp_set_num_threads(old_threads);
  ExpectSameBits(t4, t1, what);
}

TEST(ThreadInvariance, DenseKernels) {
  const Tensor a = TestMatrix(513, 301, 1);
  const Tensor b = TestMatrix(301, 47, 2);
  ExpectThreadCountInvariant([&] { return MatMul(a, b); }, "MatMul");
  const Tensor at = TestMatrix(1000, 37, 3);
  const Tensor bt = TestMatrix(1000, 29, 4);
  ExpectThreadCountInvariant([&] { return MatMulTransA(at, bt); },
                             "MatMulTransA");
  const Tensor bb = TestMatrix(53, 301, 5);
  ExpectThreadCountInvariant([&] { return MatMulTransB(a, bb); },
                             "MatMulTransB");
  const Tensor big = TestMatrix(5000, 40, 6);
  ExpectThreadCountInvariant([&] { return ColSum(big); }, "ColSum");
  ExpectThreadCountInvariant(
      [&] {
        Tensor x = big;
        x.AxpyInPlace(0.5f, big);
        x.MulInPlace(big);
        x.ScaleInPlace(1.25f);
        return x;
      },
      "elementwise in-place");
}

TEST(ThreadInvariance, SpMM) {
  Rng rng(9);
  std::vector<CooEntry> entries;
  for (int64_t i = 0; i < 4000; ++i) {
    entries.push_back({static_cast<int64_t>(rng.UniformInt(500)),
                       static_cast<int64_t>(rng.UniformInt(500)), 1.0f});
  }
  const auto m = CsrMatrix::FromCoo(500, 500, std::move(entries));
  const Tensor x = TestMatrix(500, 64, 10);
  ExpectThreadCountInvariant([&] { return m.SpMM(x); }, "SpMM");
}
#endif  // _OPENMP

// --------------------------------------------------------------- fused ops

TEST(FusedOps, AddBiasReluMatchesUnfusedChain) {
  Rng rng(11);
  for (const int64_t rows : {1L, 5L, 300L, 1500L}) {
    Variable a1(Tensor::Randn(rows, 19, &rng), /*requires_grad=*/true);
    Variable b1(Tensor::Randn(1, 19, &rng), /*requires_grad=*/true);
    Variable a2(a1.value(), /*requires_grad=*/true);
    Variable b2(b1.value(), /*requires_grad=*/true);

    Variable fused = ops::AddBiasRelu(a1, b1);
    Variable chain = ops::Relu(ops::AddBias(a2, b2));
    ExpectSameBits(fused.value(), chain.value(), "AddBiasRelu forward");

    ops::SumAll(ref::Mul(fused, fused)).Backward();
    ops::SumAll(ref::Mul(chain, chain)).Backward();
    ExpectSameBits(a1.grad(), a2.grad(), "AddBiasRelu d_input");
    ExpectSameBits(b1.grad(), b2.grad(), "AddBiasRelu d_bias");
  }
}

/// Bit patterns equal, so +0 and -0 differ (ExpectSameBits uses ==).
void ExpectSameSignedBits(const Tensor& got, const Tensor& want,
                          const char* what) {
  ASSERT_TRUE(got.SameShape(want)) << what;
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(ref::FloatBits(got[i]), ref::FloatBits(want[i]))
        << what << " differs at flat index " << i;
  }
}

/// LinearTanh against the MatMul -> AddBias -> Tanh chain it fuses, at
/// the current thread count: forward output and the x, W and b grads bit
/// for bit. Every fifth row is driven to |x W + b| > 22, where tanh is
/// exactly +-1 and 1 - y^2 is 0, and the incoming gradient holds -0, +0
/// and negative entries, so d = g * (1 - y^2) meets both signed zeros.
void ExpectLinearTanhMatchesChain(int64_t rows) {
  Rng rng(static_cast<uint64_t>(rows));
  Tensor xv = Tensor::Randn(rows, 23, &rng);
  Tensor wv = Tensor::Randn(23, 19, &rng);
  const Tensor bv = Tensor::Randn(1, 19, &rng);
  Tensor gv = Tensor::Randn(rows, 19, &rng);
  for (int64_t j = 0; j < wv.cols(); ++j) wv.at(0, j) = j % 2 ? 1.0f : -1.0f;
  for (int64_t r = 0; r < rows; ++r) {
    xv.at(r, 0) = r % 5 != 0 ? 0.0f : (r % 10 == 0 ? 200.0f : -200.0f);
  }
  for (int64_t i = 0; i < gv.numel(); i += 4) gv[i] = -0.0f;
  for (int64_t i = 1; i < gv.numel(); i += 4) gv[i] = 0.0f;

  Variable x1(xv, true), w1(wv, true), b1(bv, true);
  Variable x2(xv, true), w2(wv, true), b2(bv, true);
  const Variable g(gv, false);
  Variable fused = ops::LinearTanh(x1, w1, b1);
  Variable chain = ref::Tanh(ops::AddBias(ops::MatMul(x2, w2), b2));
  ExpectSameSignedBits(fused.value(), chain.value(), "LinearTanh forward");
  for (int64_t r = 0; r < rows; r += 5) {
    for (int64_t j = 0; j < fused.cols(); ++j) {
      ASSERT_EQ(std::fabs(fused.value().at(r, j)), 1.0f) << "row " << r;
    }
  }
  ops::SumAll(ref::Mul(fused, g)).Backward();
  ops::SumAll(ref::Mul(chain, g)).Backward();
  ExpectSameSignedBits(x1.grad(), x2.grad(), "LinearTanh d_x");
  ExpectSameSignedBits(w1.grad(), w2.grad(), "LinearTanh d_w");
  ExpectSameSignedBits(b1.grad(), b2.grad(), "LinearTanh d_b");
}

TEST(FusedOps, LinearTanhMatchesUnfusedChainAtOneAndFourThreads) {
#ifdef _OPENMP
  const int old_threads = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (const int64_t rows : {5L, 300L, 1500L}) {
      SCOPED_TRACE(testing::Message() << threads << " thread(s)");
      ExpectLinearTanhMatchesChain(rows);
    }
  }
  omp_set_num_threads(old_threads);
#else
  for (const int64_t rows : {5L, 300L, 1500L}) {
    ExpectLinearTanhMatchesChain(rows);
  }
#endif
}

TEST(FusedOps, CrossEntropyMatchesUnfusedChain) {
  Rng rng(13);
  const int64_t n = 400, classes = 7;
  Variable l1(Tensor::Randn(n, classes, &rng), /*requires_grad=*/true);
  Variable l2(l1.value(), /*requires_grad=*/true);
  std::vector<int64_t> index;
  std::vector<int64_t> labels;
  for (int64_t i = 0; i < n; i += 3) {
    index.push_back(i);
    labels.push_back(static_cast<int64_t>(rng.UniformInt(
        static_cast<uint64_t>(classes))));
  }

  Variable fused = ops::CrossEntropy(l1, index, labels);
  Variable chain =
      ref::NllLoss(ref::GatherRows(ref::LogSoftmaxRows(l2), index), labels);
  EXPECT_EQ(fused.value().scalar(), chain.value().scalar());

  fused.Backward();
  chain.Backward();
  ExpectSameBits(l1.grad(), l2.grad(), "CrossEntropy d_logits");
}

TEST(FusedOps, CrossEntropyDuplicateIndicesAccumulate) {
  Rng rng(17);
  Variable logits(Tensor::Randn(5, 3, &rng), /*requires_grad=*/true);
  const std::vector<int64_t> index = {2, 2, 4};
  const std::vector<int64_t> labels = {0, 1, 2};
  Variable loss = ops::CrossEntropy(logits, index, labels);
  loss.Backward();
  // Row 2 must carry both occurrences' gradients; rows 0/1/3 none.
  EXPECT_NE(logits.grad().at(2, 0), 0.0f);
  EXPECT_EQ(logits.grad().at(0, 0), 0.0f);
  EXPECT_EQ(logits.grad().at(1, 0), 0.0f);
  EXPECT_EQ(logits.grad().at(3, 0), 0.0f);
  // And the loss is finite and positive.
  EXPECT_GT(loss.value().scalar(), 0.0f);
}

TEST(FusedOps, AddBiasReluGradCheck) {
  Rng rng(19);
  std::vector<Variable> inputs;
  // Shift away from 0 so the finite-difference step never crosses the ReLU
  // kink (the subgradient there would dominate the error estimate).
  Tensor a = Tensor::Randn(6, 5, &rng);
  for (int64_t i = 0; i < a.numel(); ++i) {
    a[i] += a[i] >= 0.0f ? 0.5f : -0.5f;
  }
  inputs.emplace_back(a, /*requires_grad=*/true);
  inputs.emplace_back(Tensor::Full(1, 5, 0.05f), /*requires_grad=*/true);
  const auto f = [](const std::vector<Variable>& in) {
    return ops::SumAll(ref::Mul(ops::AddBiasRelu(in[0], in[1]),
                                ops::AddBiasRelu(in[0], in[1])));
  };
  for (size_t arg = 0; arg < inputs.size(); ++arg) {
    const ref::GradCheckResult r = ref::CheckGradient(f, &inputs, arg);
    EXPECT_TRUE(r.ok) << "AddBiasRelu grad check failed for input " << arg
                      << ": max_abs_err=" << r.max_abs_err
                      << " max_rel_err=" << r.max_rel_err;
  }
}

TEST(FusedOps, LogSoftmaxNllGradCheck) {
  Rng rng(23);
  std::vector<Variable> inputs;
  inputs.emplace_back(Tensor::Randn(8, 4, &rng), /*requires_grad=*/true);
  const std::vector<int64_t> index = {0, 2, 2, 5, 7};
  const std::vector<int64_t> labels = {1, 0, 3, 2, 1};
  const auto f = [&index, &labels](const std::vector<Variable>& in) {
    return ops::LogSoftmaxNll(in[0], index, labels);
  };
  const ref::GradCheckResult r = ref::CheckGradient(f, &inputs, 0);
  EXPECT_TRUE(r.ok) << "LogSoftmaxNll grad check failed: max_abs_err="
                    << r.max_abs_err << " max_rel_err=" << r.max_rel_err;
}

// ------------------------------------------------------------- tensor pool

TEST(TensorPoolTest, ReusesBuffersWithoutAliasing) {
  if (!TensorPool::Enabled()) {
    GTEST_SKIP() << "pool compiled out (sanitizer build)";
  }
  const float* recycled = nullptr;
  TensorPool::Stats before;
  {
    Tensor t(256, 256);
    recycled = t.data();
    t.Fill(42.0f);
    before = TensorPool::GetStats();
  }  // buffer returns to the pool here
  const TensorPool::Stats released = TensorPool::GetStats();
  ASSERT_EQ(released.returns, before.returns + 1)
      << "the pool did not take the freed buffer back";
  Tensor u(256, 256);
  EXPECT_EQ(u.data(), recycled) << "freed buffer was not recycled";
  const TensorPool::Stats after = TensorPool::GetStats();
  EXPECT_EQ(after.hits, released.hits + 1);
  // Recycled buffers must come back zeroed.
  for (int64_t i = 0; i < u.numel(); ++i) ASSERT_EQ(u[i], 0.0f);

  // Live tensors never share storage: copies get their own buffer...
  Tensor copy = u;
  EXPECT_NE(copy.data(), u.data());
  copy.Fill(7.0f);
  EXPECT_EQ(u[0], 0.0f);
  // ...and a second fresh tensor cannot receive a live tensor's buffer.
  Tensor w(256, 256);
  EXPECT_NE(w.data(), u.data());
  EXPECT_NE(w.data(), copy.data());
}

// Same contract for a size that is not a power of two (300 * 300 floats):
// a freed buffer must serve the next request of its own size.
TEST(TensorPoolTest, ReusesNonPowerOfTwoBuffersWithoutAliasing) {
  if (!TensorPool::Enabled()) {
    GTEST_SKIP() << "pool compiled out (sanitizer build)";
  }
  const float* recycled = nullptr;
  TensorPool::Stats before;
  {
    Tensor t(300, 300);
    recycled = t.data();
    t.Fill(42.0f);
    before = TensorPool::GetStats();
  }  // buffer returns to the pool here
  const TensorPool::Stats released = TensorPool::GetStats();
  ASSERT_EQ(released.returns, before.returns + 1)
      << "the pool did not take the freed buffer back";
  Tensor u(300, 300);
  EXPECT_EQ(u.data(), recycled) << "freed buffer was not recycled";
  const TensorPool::Stats after = TensorPool::GetStats();
  EXPECT_EQ(after.hits, released.hits + 1);
  for (int64_t i = 0; i < u.numel(); ++i) ASSERT_EQ(u[i], 0.0f);

  Tensor copy = u;
  EXPECT_NE(copy.data(), u.data());
  copy.Fill(7.0f);
  EXPECT_EQ(u[0], 0.0f);
  Tensor w(300, 300);
  EXPECT_NE(w.data(), u.data());
  EXPECT_NE(w.data(), copy.data());
}

TEST(TensorPoolTest, MoveTransfersOwnership) {
  if (!TensorPool::Enabled()) {
    GTEST_SKIP() << "pool compiled out (sanitizer build)";
  }
  Tensor t(128, 128);
  t.Fill(3.0f);
  const float* buf = t.data();
  Tensor moved = std::move(t);
  EXPECT_EQ(moved.data(), buf);
  EXPECT_EQ(moved.at(5, 5), 3.0f);
  EXPECT_EQ(t.numel(), 0);  // NOLINT(bugprone-use-after-move): spec'd empty
}

// ------------------------------------------------------- Kahan summation

TEST(KahanSum, CompensatesBeyondPlainDoubleAccumulation) {
  // 3.4e38 swamps 1e22 even in a double accumulator (ulp(3.4e38) ~ 7.6e22),
  // so a plain double sum returns 1e22 here and classic Kahan also drops
  // one term (the correction is swallowed by the cancellation at -3.4e38).
  // The Neumaier compensation carries both small terms across.
  Tensor t = Tensor::FromData(2, 2, {3.4e38f, 1e22f, -3.4e38f, 1e22f});
  EXPECT_FLOAT_EQ(t.Sum(), 2e22f);
  EXPECT_FLOAT_EQ(t.Mean(), 0.5e22f);
}

TEST(KahanSum, MeanIsSumOverCount) {
  Rng rng(29);
  const Tensor t = Tensor::Randn(100, 7, &rng);
  EXPECT_FLOAT_EQ(t.Mean(), t.Sum() / static_cast<float>(t.numel()));
}

// ------------------------------------------------------------ sparse fast paths

TEST(SparseFastPaths, TransposedMatchesCooRoundTrip) {
  Rng rng(31);
  std::vector<CooEntry> entries;
  for (int64_t i = 0; i < 900; ++i) {
    entries.push_back({static_cast<int64_t>(rng.UniformInt(60)),
                       static_cast<int64_t>(rng.UniformInt(45)),
                       static_cast<float>(rng.Uniform(-1.0, 1.0))});
  }
  const CsrMatrix m = CsrMatrix::FromCoo(60, 45, std::move(entries));
  const auto direct = m.Transposed();
  // Oracle: swap every entry and rebuild through the sorting constructor.
  std::vector<CooEntry> swapped;
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t p = m.row_ptr()[static_cast<size_t>(r)];
         p < m.row_ptr()[static_cast<size_t>(r) + 1]; ++p) {
      swapped.push_back({m.col_idx()[static_cast<size_t>(p)], r,
                         m.values()[static_cast<size_t>(p)]});
    }
  }
  const CsrMatrix oracle = CsrMatrix::FromCoo(45, 60, std::move(swapped));
  EXPECT_EQ(direct->row_ptr(), oracle.row_ptr());
  EXPECT_EQ(direct->col_idx(), oracle.col_idx());
  EXPECT_EQ(direct->values(), oracle.values());
  // Cache: repeated calls hand back the same matrix.
  EXPECT_EQ(direct.get(), m.Transposed().get());
}

// ------------------------------------------------------------ SpMM contract

/// The SpMM bitwise contract: one float accumulator per (row, feature),
/// the row's entries added in ascending-p order. The vectorised kernels
/// (full-width 8-float panels) must reproduce this exactly because each
/// output element still sums the same values in the same order — panels
/// vectorise across features, never across the reduction.
Tensor RefSpmm(const CsrMatrix& m, const Tensor& x) {
  Tensor y(m.rows(), x.cols());
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_idx();
  const auto& v = m.values();
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < x.cols(); ++c) {
      float acc = 0.0f;
      for (int64_t p = rp[static_cast<size_t>(r)];
           p < rp[static_cast<size_t>(r) + 1]; ++p) {
        acc += v[static_cast<size_t>(p)] *
               x.at(ci[static_cast<size_t>(p)], c);
      }
      y.at(r, c) = acc;
    }
  }
  return y;
}

TEST(SpmmContract, BitwiseMatchesScalarReferenceOnRaggedWidths) {
  // Widths straddle every dispatch path: every narrow tail width alone
  // (1-7), one 8-panel (8), panel + every tail width (9-15), panel +
  // tail (17), full 64-slab (64), slab + tail (69, 71), slab + 32 + 8 +
  // tail (107). Rows 20..29 are left structurally empty.
  Rng rng(17);
  std::vector<CooEntry> entries;
  for (int64_t i = 0; i < 700; ++i) {
    int64_t r = static_cast<int64_t>(rng.UniformInt(97));
    if (r >= 20 && r < 30) r = 5;
    entries.push_back({r, static_cast<int64_t>(rng.UniformInt(53)),
                       static_cast<float>(rng.Uniform(-1.0, 1.0))});
  }
  const CsrMatrix m = CsrMatrix::FromCoo(97, 53, std::move(entries));
  for (const int64_t f : {1L,  2L,  3L,  4L,  5L,  6L,  7L,  8L,
                          9L,  10L, 11L, 12L, 13L, 14L, 15L, 17L,
                          64L, 69L, 71L, 107L}) {
    Rng xr(static_cast<uint64_t>(f) + 100);
    const Tensor x = Tensor::Randn(53, f, &xr);
    const Tensor got = m.SpMM(x);
    const Tensor want = RefSpmm(m, x);
    ASSERT_EQ(got.rows(), want.rows());
    for (int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "f=" << f << " flat=" << i;
    }
    // Empty rows come out exactly zero.
    for (int64_t r = 20; r < 30; ++r) {
      for (int64_t c = 0; c < f; ++c) {
        ASSERT_EQ(got.at(r, c), 0.0f) << "empty row " << r;
      }
    }
  }
}

TEST(SpmmContract, BitwiseOnPowerLawDegrees) {
  // Hub-heavy rows: row ids drawn ~ n * U^3, so a handful of rows collect
  // hundreds of entries (exercising long reductions through the slab
  // kernels) while most rows hold a few or none.
  Rng rng(19);
  const int64_t n = 300;
  std::vector<CooEntry> entries;
  for (int64_t i = 0; i < 6000; ++i) {
    const double u = rng.Uniform();
    const int64_t r = static_cast<int64_t>(static_cast<double>(n) * u * u * u);
    entries.push_back({std::min(r, n - 1),
                       static_cast<int64_t>(rng.UniformInt(n)),
                       static_cast<float>(rng.Uniform(-1.0, 1.0))});
  }
  const CsrMatrix m = CsrMatrix::FromCoo(n, n, std::move(entries));
  Rng xr(23);
  const Tensor x = Tensor::Randn(n, 48, &xr);
  ExpectSameBits(m.SpMM(x), RefSpmm(m, x), "SpMM power-law");
}

// ---------------------------------------------------------- fused GAT kernel

/// The unfused chain GatSegmentAttention replaces; kept verbatim from the
/// original GATConv::Forward as the equivalence oracle.
Variable ChainGat(const Variable& h, const Variable& sl, const Variable& sr,
                  const std::vector<int64_t>& src,
                  const std::vector<int64_t>& dst, int64_t n, float slope,
                  float dropout_p, bool training, Rng* rng) {
  Variable e = ref::LeakyRelu(
      ops::Add(ref::GatherRows(sl, src), ref::GatherRows(sr, dst)), slope);
  Variable alpha = ref::SegmentSoftmax(e, dst, n);
  if (dropout_p > 0.0f) {
    alpha = ops::Dropout(alpha, dropout_p, training, rng);
  }
  Variable messages = ref::RowScale(ref::GatherRows(h, src), alpha);
  return ref::ScatterAddRows(messages, dst, n);
}

/// Directed edge list with self loops for a small random graph.
void TestEdges(int64_t n, uint64_t seed, std::vector<int64_t>* src,
               std::vector<int64_t>* dst) {
  Rng rng(seed);
  for (int64_t i = 0; i < n * 3; ++i) {
    const int64_t u = static_cast<int64_t>(rng.UniformInt(n));
    const int64_t v = static_cast<int64_t>(rng.UniformInt(n));
    if (u == v) continue;
    src->push_back(u);
    dst->push_back(v);
  }
  for (int64_t v = 0; v < n; ++v) {
    src->push_back(v);
    dst->push_back(v);
  }
}

/// Runs fused or chain GAT with h/sl/sr as independent leaves (the op's
/// own bitwise contract: when sl/sr are derived from h via MatMul, the
/// ORDER in which sibling nodes add into h.grad is a property of the
/// tape's topological sort, not of the op) and a non-uniform upstream
/// gradient (loss = sum(out * weights)).
struct GatRun {
  Tensor out, d_h, d_sl, d_sr;
};
GatRun RunGat(bool fused, const Tensor& h_val, const Tensor& sl_val,
              const Tensor& sr_val, const std::vector<int64_t>& src,
              const std::vector<int64_t>& dst, int64_t n, float dropout_p,
              Rng* rng) {
  Variable h(h_val, /*requires_grad=*/true);
  Variable sl(sl_val, /*requires_grad=*/true);
  Variable sr(sr_val, /*requires_grad=*/true);
  Variable out =
      fused ? ops::GatSegmentAttention(h, sl, sr, src, dst, n,
                                       /*negative_slope=*/0.2f, dropout_p,
                                       /*training=*/true, rng)
            : ChainGat(h, sl, sr, src, dst, n, 0.2f, dropout_p, true, rng);
  Rng wr(7);
  Variable weights(Tensor::Randn(n, h_val.cols(), &wr));
  ops::SumAll(ref::Mul(out, weights)).Backward();
  return {out.value(), h.grad(), sl.grad(), sr.grad()};
}

TEST(FusedGat, ForwardAndBackwardMatchChainBitwise) {
  const int64_t n = 37, f = 19;
  std::vector<int64_t> src, dst;
  TestEdges(n, 41, &src, &dst);
  Rng rng(43);
  const Tensor h_val = Tensor::Randn(n, f, &rng);
  const Tensor sl_val = Tensor::Randn(n, 1, &rng);
  const Tensor sr_val = Tensor::Randn(n, 1, &rng);
  const GatRun chain =
      RunGat(false, h_val, sl_val, sr_val, src, dst, n, 0.0f, nullptr);
  const GatRun fused =
      RunGat(true, h_val, sl_val, sr_val, src, dst, n, 0.0f, nullptr);
  ExpectSameBits(fused.out, chain.out, "fused GAT forward");
  ExpectSameBits(fused.d_h, chain.d_h, "fused GAT d_h");
  ExpectSameBits(fused.d_sl, chain.d_sl, "fused GAT d_sl");
  ExpectSameBits(fused.d_sr, chain.d_sr, "fused GAT d_sr");
}

TEST(FusedGat, DropoutRngStreamMatchesChain) {
  const int64_t n = 23, f = 8;
  std::vector<int64_t> src, dst;
  TestEdges(n, 47, &src, &dst);
  Rng rng(53);
  const Tensor h_val = Tensor::Randn(n, f, &rng);
  const Tensor sl_val = Tensor::Randn(n, 1, &rng);
  const Tensor sr_val = Tensor::Randn(n, 1, &rng);
  Rng chain_rng(97), fused_rng(97);  // identical stream for both sides
  const GatRun chain =
      RunGat(false, h_val, sl_val, sr_val, src, dst, n, 0.4f, &chain_rng);
  const GatRun fused =
      RunGat(true, h_val, sl_val, sr_val, src, dst, n, 0.4f, &fused_rng);
  ExpectSameBits(fused.out, chain.out, "fused GAT dropout forward");
  ExpectSameBits(fused.d_h, chain.d_h, "fused GAT dropout d_h");
  ExpectSameBits(fused.d_sl, chain.d_sl, "fused GAT dropout d_sl");
  ExpectSameBits(fused.d_sr, chain.d_sr, "fused GAT dropout d_sr");
}

TEST(FusedGat, EvalModeDropoutIsIdentity) {
  const int64_t n = 11, f = 4;
  std::vector<int64_t> src, dst;
  TestEdges(n, 59, &src, &dst);
  Rng rng(61);
  Variable h(Tensor::Randn(n, f, &rng));
  Variable sl(Tensor::Randn(n, 1, &rng));
  Variable sr(Tensor::Randn(n, 1, &rng));
  Rng drop_rng(1);
  const Variable with_p = ops::GatSegmentAttention(
      h, sl, sr, src, dst, n, 0.2f, /*dropout_p=*/0.5f,
      /*training=*/false, &drop_rng);
  const Variable without = ops::GatSegmentAttention(
      h, sl, sr, src, dst, n, 0.2f, /*dropout_p=*/0.0f,
      /*training=*/false, nullptr);
  ExpectSameBits(with_p.value(), without.value(), "eval-mode dropout");
}

TEST(FusedGat, GradCheckAgainstFiniteDifferences) {
  const int64_t n = 9, f = 5;
  std::vector<int64_t> src, dst;
  TestEdges(n, 67, &src, &dst);
  Rng rng(71);
  std::vector<Variable> inputs;
  inputs.emplace_back(Tensor::Randn(n, f, &rng), /*requires_grad=*/true);
  inputs.emplace_back(Tensor::Randn(n, 1, &rng), /*requires_grad=*/true);
  inputs.emplace_back(Tensor::Randn(n, 1, &rng), /*requires_grad=*/true);
  auto fn = [&](const std::vector<Variable>& in) {
    return ops::SumAll(ops::GatSegmentAttention(in[0], in[1], in[2], src,
                                                dst, n, 0.2f, 0.0f, false,
                                                nullptr));
  };
  for (size_t i = 0; i < inputs.size(); ++i) {
    const ref::GradCheckResult r = ref::CheckGradient(fn, &inputs, i);
    EXPECT_TRUE(r.ok) << "input " << i << " max_abs_err=" << r.max_abs_err
                      << " max_rel_err=" << r.max_rel_err << " at "
                      << r.worst_index;
  }
}

#ifdef _OPENMP
TEST(ThreadInvariance, FusedGatForward) {
  const int64_t n = 200, f = 32;
  std::vector<int64_t> src, dst;
  TestEdges(n, 73, &src, &dst);
  Rng rng(79);
  const Tensor h_val = Tensor::Randn(n, f, &rng);
  const Tensor a_src = Tensor::Randn(f, 1, &rng);
  const Tensor a_dst = Tensor::Randn(f, 1, &rng);
  ExpectThreadCountInvariant(
      [&] {
        Variable h(h_val, /*requires_grad=*/true);
        Variable sl = ops::MatMul(h, Variable(a_src));
        Variable sr = ops::MatMul(h, Variable(a_dst));
        Variable out = ops::GatSegmentAttention(h, sl, sr, src, dst, n,
                                                0.2f, 0.0f, true, nullptr);
        ops::SumAll(out).Backward();
        Tensor both(n, f + 1);
        // Pack forward value and d_h into one tensor so a single bitwise
        // comparison covers the whole pass.
        for (int64_t r = 0; r < n; ++r) {
          for (int64_t c = 0; c < f; ++c) both.at(r, c) = h.grad().at(r, c);
          both.at(r, f) = out.value().at(r, 0);
        }
        return both;
      },
      "fused GAT forward+backward");
}
#endif  // _OPENMP

// ------------------------------------------------------------ dropout masks

/// Reference dropout mask: one rng->Bernoulli(p) per element in index
/// order, 1 / (1 - p) for a kept element. The mask kernel behind
/// ops::Dropout and the GAT attention dropout must match it draw for draw.
std::vector<float> RefDropoutMask(float p, Rng* rng, int64_t n) {
  const float keep = 1.0f - p;
  std::vector<float> mask(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const bool kept = !rng->Bernoulli(p);
    mask[static_cast<size_t>(i)] = kept ? 1.0f / keep : 0.0f;
  }
  return mask;
}

void ExpectSameFloatBits(const float* got, const std::vector<float>& want,
                         const std::string& what) {
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(ref::FloatBits(got[i]), ref::FloatBits(want[i]))
        << what << " differs at flat index " << i;
  }
}

/// Probabilities near both ends of (0, 1) (1 - 2^-24 is the largest float
/// below 1) and between, and lengths through every short case plus a GCN
/// hidden layer.
const float kDropoutPs[] = {0x1.0p-24f, 0.1f, 0.5f, 0.6f, 0.9f,
                            1.0f - 0x1.0p-24f};

std::vector<std::pair<int64_t, int64_t>> DropoutShapes() {
  std::vector<std::pair<int64_t, int64_t>> shapes;
  for (int64_t n = 0; n <= 17; ++n) shapes.emplace_back(n, 1);
  shapes.emplace_back(2277, 64);
  return shapes;
}

TEST(DropoutMaskTest, OpsDropoutMatchesBernoulliLoopBitwise) {
  for (const float p : kDropoutPs) {
    for (const auto& [rows, cols] : DropoutShapes()) {
      const std::string what = "p=" + std::to_string(p) +
                               " n=" + std::to_string(rows * cols);
      Rng value_rng(static_cast<uint64_t>(rows * cols) + 3);
      const Tensor a_val = Tensor::Randn(rows, cols, &value_rng);
      Rng rng(29), ref_rng(29);
      const std::vector<float> mask =
          RefDropoutMask(p, &ref_rng, rows * cols);
      std::vector<float> want(mask.size());
      for (size_t i = 0; i < mask.size(); ++i) want[i] = a_val[i] * mask[i];

      Variable a(a_val, /*requires_grad=*/true);
      const Variable out = ops::Dropout(a, p, /*training=*/true, &rng);
      ExpectSameFloatBits(out.value().data(), want, what + " output");
      // d(sum out)/da is 1 * mask: the gradient is the mask itself.
      if (rows * cols > 0) {
        ops::SumAll(out).Backward();
        ExpectSameFloatBits(a.grad().data(), mask, what + " mask");
      }
      EXPECT_EQ(rng.Next(), ref_rng.Next()) << what << " next draw";
    }
  }
}

TEST(DropoutMaskTest, GatAttentionDropoutMatchesBernoulliLoopBitwise) {
  // One self-loop edge per node: every softmax segment holds a single
  // edge, so alpha is exactly 1 and out[i] = 0 + mask[i] * h[i] (the
  // scatter starts from +0); summing the output gives
  // d(h)[i] = alpha[i] * mask[i] = mask[i].
  for (const float p : kDropoutPs) {
    for (const auto& [rows, cols] : DropoutShapes()) {
      const int64_t e = rows * cols;
      const std::string what =
          "p=" + std::to_string(p) + " e=" + std::to_string(e);
      std::vector<int64_t> src(static_cast<size_t>(e));
      for (int64_t i = 0; i < e; ++i) src[static_cast<size_t>(i)] = i;
      const std::vector<int64_t> dst = src;
      Rng value_rng(static_cast<uint64_t>(e) + 5);
      const Tensor h_val = Tensor::Randn(e, 1, &value_rng);
      Rng rng(31), ref_rng(31);
      const std::vector<float> mask = RefDropoutMask(p, &ref_rng, e);
      std::vector<float> want(mask.size());
      for (size_t i = 0; i < mask.size(); ++i) {
        want[i] = 0.0f + mask[i] * h_val[i];
      }

      Variable h(h_val, /*requires_grad=*/true);
      Variable sl(Tensor::Randn(e, 1, &value_rng));
      Variable sr(Tensor::Randn(e, 1, &value_rng));
      const Variable out = ops::GatSegmentAttention(
          h, sl, sr, src, dst, e, /*negative_slope=*/0.2f, p,
          /*training=*/true, &rng);
      ExpectSameFloatBits(out.value().data(), want, what + " output");
      if (e > 0) {
        ops::SumAll(out).Backward();
        ExpectSameFloatBits(h.grad().data(), mask, what + " mask");
      }
      EXPECT_EQ(rng.Next(), ref_rng.Next()) << what << " next draw";
    }
  }
}

// --------------------------------------------------------------------- adam

// Adam's library-default moments and epsilon, written out here so the
// reference does not read them from src/.
constexpr float kRefBeta1 = 0.9f;
constexpr float kRefBeta2 = 0.999f;
constexpr float kRefEps = 1e-8f;

/// One Adam update of one element, written as Adam::Step's loop body. Kept
/// out of line so the reference loop below stays scalar whatever the
/// compiler does with Step's.
[[gnu::noinline]] void RefAdamElement(const nn::Adam::Options& o, float bc1,
                                      float bc2, float g, float* w, float* m,
                                      float* v) {
  const float grad = g + o.weight_decay * *w;
  *m = kRefBeta1 * *m + (1.0f - kRefBeta1) * grad;
  *v = kRefBeta2 * *v + (1.0f - kRefBeta2) * grad * grad;
  const float m_hat = *m / bc1;
  const float v_hat = *v / bc2;
  *w -= o.lr * m_hat / (std::sqrt(v_hat) + kRefEps);
}

TEST(AdamStepTest, MatchesScalarReferenceBitwise) {
  // Sizes cover whole vectors plus every kind of remainder; the middle
  // parameter never gets a gradient and must be left untouched.
  const std::pair<int64_t, int64_t> shapes[] = {{37, 19}, {3, 5}, {64, 5}};
  for (const float wd : {0.0f, 5e-4f}) {
    nn::Adam::Options opts;
    opts.weight_decay = wd;
    Rng rng(37);
    std::vector<Variable> params;
    std::vector<std::vector<float>> w, m, v;
    for (const auto& [r, c] : shapes) {
      params.emplace_back(Tensor::Randn(r, c, &rng), /*requires_grad=*/true);
      const Tensor& val = params.back().value();
      w.emplace_back(val.data(), val.data() + val.numel());
      m.emplace_back(w.back().size(), 0.0f);
      v.emplace_back(w.back().size(), 0.0f);
    }
    nn::Adam adam(params, opts);
    for (int step = 1; step <= 5; ++step) {
      std::vector<Tensor> grads;
      for (size_t k = 0; k < params.size(); ++k) {
        grads.push_back(Tensor::Randn(shapes[k].first, shapes[k].second,
                                      &rng));
        if (k != 1) *params[k].node()->EnsureGrad() = grads.back();
      }
      ASSERT_FALSE(params[1].has_grad());
      adam.Step();

      const float bc1 = 1.0f - std::pow(kRefBeta1, static_cast<float>(step));
      const float bc2 = 1.0f - std::pow(kRefBeta2, static_cast<float>(step));
      for (size_t k = 0; k < params.size(); ++k) {
        if (k == 1) continue;
        for (size_t j = 0; j < w[k].size(); ++j) {
          RefAdamElement(opts, bc1, bc2, grads[k][static_cast<int64_t>(j)],
                         &w[k][j], &m[k][j], &v[k][j]);
        }
      }
      for (size_t k = 0; k < params.size(); ++k) {
        ExpectSameFloatBits(params[k].value().data(), w[k],
                            "wd=" + std::to_string(wd) + " step " +
                                std::to_string(step) + " param " +
                                std::to_string(k));
      }
    }
  }
}

// --------------------------------------------------------------- vector tanh

using ref::BitsFloat;
using ref::FloatBits;

/// Inputs around every branch point of tanhf and of the expm1f calls it
/// makes, plus the special values: +-0, subnormals, +-inf, quiet and
/// signalling NaNs with assorted payloads.
std::vector<uint32_t> TanhEdgeBits() {
  std::vector<uint32_t> edges = {
      0x00000000, 0x00000001, 0x00000002, 0x000fffff, 0x00400000,
      0x007ffffe, 0x007fffff, 0x00800000, 0x00800001,  // subnormal / normal
      0x24000000, 0x23ffffff, 0x24000001,              // 2^-55
      0x3f800000, 0x3f7fffff, 0x3f800001,              // 1
      0x41b00000, 0x41afffff, 0x41b00001,              // 22
      0x32800000, 0x327fffff, 0x32800001,   // |2x| = 2^-25 (expm1f tiny cut)
      0x3e317218, 0x3e317217, 0x3e317219,   // |2x| = 0.5 ln2 (k = 0 / +-1)
      0x3f051592, 0x3f051591, 0x3f051593,   // |2x| = 1.5 ln2 (k = +-1 / round)
      0x3f7ffffe, 0x3f000000, 0x3e800000, 0x3fc00000, 0x40000000,
      0x40a00000, 0x41000000, 0x41800000, 0x41a80000,
      0x7f7fffff, 0x7f800000,                           // max finite, inf
      0x7f800001, 0x7fbfffff, 0x7fc00000, 0x7fc00001,   // sNaN, qNaN
      0x7fd23456, 0x7fffffff, 0x7fa5a5a5,
  };
  const size_t positive = edges.size();
  for (size_t i = 0; i < positive; ++i) edges.push_back(edges[i] | 0x80000000u);
  return edges;
}

/// A stride through all 2^32 bit patterns (every sign, exponent and NaN
/// payload region) plus a dense linear sweep of [-24, 24].
std::vector<uint32_t> TanhSweepBits() {
  std::vector<uint32_t> bits;
  for (uint64_t u = 0; u < (uint64_t{1} << 32); u += 1031) {
    bits.push_back(static_cast<uint32_t>(u));
  }
  for (int i = -240000; i <= 240000; ++i) {
    bits.push_back(FloatBits(static_cast<float>(i) * 1.0e-4f));
  }
  return bits;
}

/// Runs TanhInPlace over `bits` and reports every lane whose result bits
/// differ from the scalar reference.
void ExpectTanhMatchesReference(const std::vector<uint32_t>& bits) {
  std::vector<float> x(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) x[i] = BitsFloat(bits[i]);
  TanhInPlace(x.data(), static_cast<int64_t>(x.size()));
  int reported = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    const uint32_t want = FloatBits(ref::TanhfReference(BitsFloat(bits[i])));
    if (FloatBits(x[i]) != want && reported++ < 10) {
      ADD_FAILURE() << std::hex << "tanh(0x" << bits[i] << ") = 0x"
                    << FloatBits(x[i]) << ", reference 0x" << want;
    }
  }
}

TEST(VectorTanhTest, EdgeValuesMatchReferenceBitwise) {
  ExpectTanhMatchesReference(TanhEdgeBits());
}

TEST(VectorTanhTest, SweepMatchesReferenceBitwise) {
  ExpectTanhMatchesReference(TanhSweepBits());
}

TEST(VectorTanhTest, EveryTailLengthMatchesAndStaysInBounds) {
  // Lengths 0-15 run the tail path alone, 16-31 a full 16-lane vector plus
  // a tail. The sentinel after the range must come back untouched.
  const std::vector<uint32_t> edges = TanhEdgeBits();
  for (int64_t n = 0; n < 32; ++n) {
    for (size_t start = 0; start + static_cast<size_t>(n) <= edges.size();
         start += 7) {
      std::vector<float> x(static_cast<size_t>(n) + 1);
      for (int64_t i = 0; i < n; ++i) {
        x[static_cast<size_t>(i)] = BitsFloat(edges[start + i]);
      }
      x.back() = 123.0f;
      TanhInPlace(x.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(FloatBits(x[static_cast<size_t>(i)]),
                  FloatBits(ref::TanhfReference(BitsFloat(edges[start + i]))))
            << "n=" << n << " lane " << i;
      }
      EXPECT_EQ(x.back(), 123.0f) << "n=" << n;
    }
  }
}

TEST(VectorTanhTest, WithinTwoAndAHalfUlpOfDoubleTanh) {
  double worst = 0.0;
  uint32_t worst_bits = 0;
  for (const uint32_t b : TanhSweepBits()) {
    const float xf = BitsFloat(b);
    if (!std::isfinite(xf)) continue;
    float y = xf;
    TanhInPlace(&y, 1);
    const double err = ref::UlpError(y, std::tanh(static_cast<double>(xf)));
    if (err > worst) {
      worst = err;
      worst_bits = b;
    }
  }
  EXPECT_LE(worst, 2.5) << std::hex << "at x = 0x" << worst_bits;
}

TEST(VectorTanhTest, LinearTanhForwardAndGradient) {
  Rng rng(83);
  const Tensor x_val = Tensor::Rand(37, 11, &rng, -6.0f, 6.0f);
  Variable x(x_val, /*requires_grad=*/true);
  // x I + 0 is x exactly, so the node's output is tanh(x) and d_x is
  // 1 - y^2, both against the scalar fdlibm transcription.
  Tensor eye(11, 11);
  for (int64_t i = 0; i < 11; ++i) eye.at(i, i) = 1.0f;
  Variable y = ops::LinearTanh(x, Variable(eye, false),
                               Variable(Tensor(1, 11), false));
  ops::SumAll(y).Backward();
  for (int64_t i = 0; i < x_val.numel(); ++i) {
    const float want = ref::TanhfReference(x_val.data()[i]);
    EXPECT_EQ(FloatBits(y.value().data()[i]), FloatBits(want));
    EXPECT_EQ(x.grad().data()[i], 1.0f - want * want);
  }
}

}  // namespace
}  // namespace tensor
}  // namespace graphrare
