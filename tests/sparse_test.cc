// CSR matrix tests: construction, SpMM, transpose, sparse-sparse product,
// row slicing, and gradient checks through the SpMM backward.

#include "tensor/sparse.h"

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "test_support.h"

namespace graphrare {
namespace tensor {
namespace {

namespace ref = testing_ref;
using ref::AllClose;
using ref::Transposed;
using ref::ToDense;
using ref::At;

CsrMatrix SmallMatrix() {
  // [[0 2 0]
  //  [1 0 0]
  //  [0 3 4]]
  return CsrMatrix::FromCoo(
      3, 3, {{0, 1, 2.0f}, {1, 0, 1.0f}, {2, 1, 3.0f}, {2, 2, 4.0f}});
}

TEST(CsrTest, FromCooBasics) {
  CsrMatrix m = SmallMatrix();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_FLOAT_EQ(At(m, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(At(m, 1, 0), 1.0f);
  EXPECT_FLOAT_EQ(At(m, 2, 2), 4.0f);
  EXPECT_FLOAT_EQ(At(m, 0, 0), 0.0f);
}

TEST(CsrTest, DuplicateEntriesSummed) {
  CsrMatrix m =
      CsrMatrix::FromCoo(2, 2, {{0, 0, 1.0f}, {0, 0, 2.5f}, {1, 1, 1.0f}});
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_FLOAT_EQ(At(m, 0, 0), 3.5f);
}

TEST(CsrTest, UnsortedInputSorted) {
  CsrMatrix m = CsrMatrix::FromCoo(
      2, 3, {{1, 2, 1.0f}, {0, 1, 2.0f}, {1, 0, 3.0f}, {0, 0, 4.0f}});
  // Column indices must be ascending within each row.
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t p = m.row_ptr()[r] + 1; p < m.row_ptr()[r + 1]; ++p) {
      EXPECT_LT(m.col_idx()[p - 1], m.col_idx()[p]);
    }
  }
}

TEST(CsrTest, EmptyMatrix) {
  CsrMatrix m = CsrMatrix::FromCoo(3, 3, {});
  EXPECT_EQ(m.nnz(), 0);
  Tensor x = Tensor::Full(3, 2, 1.0f);
  Tensor y = m.SpMM(x);
  EXPECT_TRUE(AllClose(y, Tensor::Zeros(3, 2)));
}

TEST(CsrTest, IdentitySpMMIsNoop) {
  Rng rng(1);
  Tensor x = Tensor::Randn(4, 3, &rng);
  CsrMatrix eye = CsrMatrix::FromCoo(
      4, 4, {{0, 0, 1.0f}, {1, 1, 1.0f}, {2, 2, 1.0f}, {3, 3, 1.0f}});
  EXPECT_TRUE(AllClose(eye.SpMM(x), x));
}

TEST(CsrTest, SpMMMatchesDense) {
  Rng rng(2);
  CsrMatrix m = SmallMatrix();
  Tensor x = Tensor::Randn(3, 5, &rng);
  Tensor sparse_result = m.SpMM(x);
  Tensor dense_result = MatMul(ToDense(m), x);
  EXPECT_TRUE(AllClose(sparse_result, dense_result));
}

TEST(CsrTest, TransposeMatchesDense) {
  CsrMatrix m = SmallMatrix();
  auto t = m.Transposed();
  EXPECT_TRUE(AllClose(ToDense(*t), Transposed(ToDense(m))));
}

TEST(CsrTest, TransposeIsCached) {
  CsrMatrix m = SmallMatrix();
  auto t1 = m.Transposed();
  auto t2 = m.Transposed();
  EXPECT_EQ(t1.get(), t2.get());
}

TEST(CsrTest, MultiplyMatchesDense) {
  Rng rng(3);
  CsrMatrix a = SmallMatrix();
  CsrMatrix b = CsrMatrix::FromCoo(
      3, 4, {{0, 0, 1.0f}, {1, 2, 2.0f}, {2, 1, -1.0f}, {2, 3, 0.5f}});
  CsrMatrix c = a.Multiply(b);
  Tensor expect = MatMul(ToDense(a), ToDense(b));
  EXPECT_TRUE(AllClose(ToDense(c), expect));
}

TEST(CsrTest, MultiplySquareOfAdjacencyCountsPaths) {
  // Path graph 0-1-2: A^2 should have (0,2) entry = 1 (one 2-path).
  CsrMatrix a = CsrMatrix::FromCoo(3, 3,
                                   {{0, 1, 1.0f},
                                    {1, 0, 1.0f},
                                    {1, 2, 1.0f},
                                    {2, 1, 1.0f}});
  CsrMatrix a2 = a.Multiply(a);
  EXPECT_FLOAT_EQ(At(a2, 0, 2), 1.0f);
  EXPECT_FLOAT_EQ(At(a2, 0, 0), 1.0f);  // back-and-forth
  EXPECT_FLOAT_EQ(At(a2, 1, 1), 2.0f);  // two return paths via 0 and 2
}

TEST(CsrTest, SelectRowsCopiesRowsInOrder) {
  CsrMatrix m = SmallMatrix();
  CsrMatrix s = m.SelectRows({2, 0, 2});
  EXPECT_EQ(s.rows(), 3);
  EXPECT_EQ(s.cols(), 3);
  EXPECT_EQ(s.nnz(), 5);  // rows 2 (2 entries) + 0 (1) + 2 (2)
  EXPECT_FLOAT_EQ(At(s, 0, 1), 3.0f);
  EXPECT_FLOAT_EQ(At(s, 0, 2), 4.0f);
  EXPECT_FLOAT_EQ(At(s, 1, 1), 2.0f);
  EXPECT_FLOAT_EQ(At(s, 2, 2), 4.0f);
  EXPECT_EQ(m.SelectRows({}).rows(), 0);
}

// --- Gradient checks through the SpMM backward (x -> A x). Forward values
// were already covered; these pin the A^T dY pullback on inputs that stress
// the COO assembly: non-square shapes and duplicate entries. ---

/// d MeanAll(Square(A x)) / dx must match central differences.
void ExpectSpMMGradOk(CsrMatrix a, int64_t x_cols) {
  auto shared = std::make_shared<const CsrMatrix>(std::move(a));
  Rng rng(31);
  std::vector<Variable> inputs = {
      Variable(Tensor::Randn(shared->cols(), x_cols, &rng),
               /*requires_grad=*/true)};
  auto f = [shared](const std::vector<Variable>& in) {
    return ops::MeanAll(ops::Square(ops::SpMM(shared, in[0])));
  };
  const ref::GradCheckResult r = ref::CheckGradient(f, &inputs, 0);
  EXPECT_TRUE(r.ok) << "max_abs_err=" << r.max_abs_err
                    << " max_rel_err=" << r.max_rel_err << " at flat index "
                    << r.worst_index;
}

TEST(CsrGradTest, SpMMBackwardNonSquareTall) {
  // 4x2: more rows than columns.
  ExpectSpMMGradOk(CsrMatrix::FromCoo(4, 2,
                                      {{0, 0, 1.5f},
                                       {1, 1, -2.0f},
                                       {2, 0, 0.5f},
                                       {3, 1, 3.0f},
                                       {3, 0, -1.0f}}),
                   3);
}

TEST(CsrGradTest, SpMMBackwardNonSquareWide) {
  // 2x5: more columns than rows, including an all-zero column.
  ExpectSpMMGradOk(CsrMatrix::FromCoo(2, 5,
                                      {{0, 4, 2.0f},
                                       {0, 1, -0.5f},
                                       {1, 0, 1.0f},
                                       {1, 3, -3.0f}}),
                   2);
}

TEST(CsrGradTest, SpMMBackwardDuplicateEntriesSummed) {
  // Duplicates (0,1) and (2,0) must act as their sums in both directions.
  CsrMatrix a = CsrMatrix::FromCoo(3, 2,
                                   {{0, 1, 1.0f},
                                    {0, 1, 2.0f},
                                    {2, 0, -1.0f},
                                    {2, 0, 0.25f},
                                    {1, 0, 4.0f}});
  EXPECT_EQ(a.nnz(), 3);
  ExpectSpMMGradOk(std::move(a), 2);
}

TEST(CsrGradTest, SpMMBackwardMatchesDenseMatMulGrad) {
  // Same loss through SpMM and through the dense MatMul path must produce
  // the same input gradient.
  CsrMatrix a = CsrMatrix::FromCoo(
      3, 4, {{0, 0, 1.0f}, {0, 3, -2.0f}, {1, 1, 0.5f}, {2, 2, 2.0f}});
  auto shared = std::make_shared<const CsrMatrix>(a);
  Rng rng(7);
  const Tensor x0 = Tensor::Randn(4, 3, &rng);

  Variable x_sparse(x0, /*requires_grad=*/true);
  ops::MeanAll(ops::Square(ops::SpMM(shared, x_sparse))).Backward();

  Variable x_dense(x0, /*requires_grad=*/true);
  Variable a_const(ToDense(a), /*requires_grad=*/false);
  ops::MeanAll(ops::Square(ops::MatMul(a_const, x_dense))).Backward();

  EXPECT_TRUE(AllClose(x_sparse.grad(), x_dense.grad(), 1e-6f, 1e-5f));
}

TEST(CsrDeathTest, OutOfRangeCooAborts) {
  EXPECT_DEATH(CsrMatrix::FromCoo(2, 2, {{2, 0, 1.0f}}), "out of range");
}

TEST(CsrDeathTest, SpMMDimensionMismatchAborts) {
  CsrMatrix m = SmallMatrix();
  Tensor x(4, 2);
  EXPECT_DEATH(m.SpMM(x), "GR_CHECK");
}

CsrMatrix RandomMatrix(int64_t rows, int64_t cols, int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<CooEntry> entries;
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({static_cast<int64_t>(rng.UniformInt(rows)),
                       static_cast<int64_t>(rng.UniformInt(cols)),
                       static_cast<float>(rng.Uniform(-2.0, 2.0))});
  }
  return CsrMatrix::FromCoo(rows, cols, std::move(entries));
}

void ExpectSameCsr(const CsrMatrix& got, const CsrMatrix& want) {
  EXPECT_EQ(got.rows(), want.rows());
  EXPECT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  EXPECT_EQ(got.values(), want.values());
}

TEST(CsrPermutedTest, MatchesCooOracle) {
  const CsrMatrix m = RandomMatrix(17, 17, 90, 101);
  Rng rng(103);
  std::vector<int64_t> perm(17);
  for (int64_t i = 0; i < 17; ++i) perm[static_cast<size_t>(i)] = i;
  for (int64_t i = 16; i > 0; --i) {
    std::swap(perm[static_cast<size_t>(i)],
              perm[rng.UniformInt(static_cast<uint64_t>(i) + 1)]);
  }
  struct Case {
    bool rows, cols;
  };
  for (const Case c : {Case{true, true}, Case{true, false},
                       Case{false, true}}) {
    std::vector<CooEntry> mapped;
    for (int64_t r = 0; r < m.rows(); ++r) {
      for (int64_t p = m.row_ptr()[static_cast<size_t>(r)];
           p < m.row_ptr()[static_cast<size_t>(r) + 1]; ++p) {
        const int64_t col = m.col_idx()[static_cast<size_t>(p)];
        mapped.push_back(
            {c.rows ? perm[static_cast<size_t>(r)] : r,
             c.cols ? perm[static_cast<size_t>(col)] : col,
             m.values()[static_cast<size_t>(p)]});
      }
    }
    ExpectSameCsr(m.Permuted(perm, c.rows, c.cols),
                  CsrMatrix::FromCoo(17, 17, std::move(mapped)));
  }
}

TEST(CsrTransposedTest, ConcurrentCallsShareOneInstance) {
  // Transposed() is lazily cached behind std::call_once; hammer it from
  // many threads and require a single shared instance with correct
  // contents.
  const CsrMatrix m = RandomMatrix(120, 80, 2000, 107);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const CsrMatrix>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, &results, t] {
      for (int i = 0; i < 50; ++i) results[static_cast<size_t>(t)] =
          m.Transposed();
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<size_t>(t)].get(), results[0].get());
  }
  // Contents: (c, r) of every original entry.
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t p = m.row_ptr()[static_cast<size_t>(r)];
         p < m.row_ptr()[static_cast<size_t>(r) + 1]; ++p) {
      EXPECT_EQ(
          At(*results[0], m.col_idx()[static_cast<size_t>(p)], r),
          m.values()[static_cast<size_t>(p)]);
    }
  }
}

}  // namespace
}  // namespace tensor
}  // namespace graphrare
