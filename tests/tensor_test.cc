// Tensor value-type and dense kernel tests.

#include "tensor/tensor.h"
#include "test_support.h"

#include <gtest/gtest.h>

namespace graphrare {
namespace tensor {
namespace {

using testing_ref::AllClose;
using testing_ref::MaxAbs;
using testing_ref::HasNonFinite;
using testing_ref::Transposed;

TEST(TensorTest, DefaultConstructedIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.rows(), 0);
  EXPECT_EQ(t.cols(), 0);
  EXPECT_EQ(t.numel(), 0);
}

TEST(TensorTest, ZerosInitialised) {
  Tensor t(3, 4);
  EXPECT_EQ(t.numel(), 12);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FullAndScalar) {
  Tensor t = Tensor::Full(2, 2, 3.5f);
  EXPECT_EQ(t.at(1, 1), 3.5f);
  Tensor s = Tensor::Scalar(-2.0f);
  EXPECT_TRUE(s.is_scalar());
  EXPECT_EQ(s.scalar(), -2.0f);
}

TEST(TensorTest, FromDataTakesOwnership) {
  Tensor t = Tensor::FromData(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, RandnStats) {
  Rng rng(42);
  Tensor t = Tensor::Randn(100, 100, &rng);
  const double mean = t.Mean();
  EXPECT_NEAR(mean, 0.0, 0.02);
  double var = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) var += (t[i] - mean) * (t[i] - mean);
  var /= static_cast<double>(t.numel());
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(TensorTest, RandUniformRange) {
  Rng rng(7);
  Tensor t = Tensor::Rand(50, 50, &rng, -2.0f, 3.0f);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -2.0f);
    EXPECT_LT(t[i], 3.0f);
  }
}

TEST(TensorTest, GlorotUniformBounds) {
  Rng rng(3);
  Tensor w = Tensor::GlorotUniform(100, 50, &rng);
  const float limit = std::sqrt(6.0f / 150.0f);
  EXPECT_LE(MaxAbs(w), limit);
}

TEST(TensorTest, AddInPlace) {
  Tensor a = Tensor::Full(2, 3, 1.0f);
  Tensor b = Tensor::Full(2, 3, 2.5f);
  a.AddInPlace(b);
  EXPECT_EQ(a.at(1, 2), 3.5f);
}

TEST(TensorTest, AxpyInPlace) {
  Tensor a = Tensor::Full(2, 2, 1.0f);
  Tensor b = Tensor::Full(2, 2, 2.0f);
  a.AxpyInPlace(-0.5f, b);
  EXPECT_EQ(a.at(0, 0), 0.0f);
}

TEST(TensorTest, ScaleInPlace) {
  Tensor a = Tensor::Full(2, 2, 3.0f);
  a.ScaleInPlace(2.0f);
  EXPECT_EQ(a.at(1, 1), 6.0f);
}

TEST(TensorTest, MulInPlace) {
  Tensor a = Tensor::FromData(1, 3, {1, 2, 3});
  Tensor b = Tensor::FromData(1, 3, {4, 5, 6});
  a.MulInPlace(b);
  EXPECT_EQ(a[0], 4.0f);
  EXPECT_EQ(a[1], 10.0f);
  EXPECT_EQ(a[2], 18.0f);
}

TEST(TensorTest, Transposed) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor t = Transposed(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t.at(0, 1), 4.0f);
  EXPECT_EQ(t.at(2, 0), 3.0f);
}

TEST(TensorTest, AllCloseToleratesSmallDiffs) {
  Tensor a = Tensor::Full(2, 2, 1.0f);
  Tensor b = Tensor::Full(2, 2, 1.0f + 1e-6f);
  EXPECT_TRUE(AllClose(a, b));
  Tensor c = Tensor::Full(2, 2, 1.1f);
  EXPECT_FALSE(AllClose(a, c));
  Tensor d = Tensor::Full(2, 3, 1.0f);
  EXPECT_FALSE(AllClose(a, d));
}

TEST(TensorTest, SumMeanMaxAbs) {
  Tensor a = Tensor::FromData(2, 2, {-1, 2, -3, 4});
  EXPECT_FLOAT_EQ(a.Sum(), 2.0f);
  EXPECT_FLOAT_EQ(a.Mean(), 0.5f);
  EXPECT_FLOAT_EQ(MaxAbs(a), 4.0f);
}

TEST(TensorTest, HasNonFinite) {
  Tensor a = Tensor::Full(2, 2, 1.0f);
  EXPECT_FALSE(HasNonFinite(a));
  a.at(1, 1) = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(HasNonFinite(a));
  a.at(1, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(HasNonFinite(a));
}

TEST(TensorTest, ArgMaxRow) {
  Tensor a = Tensor::FromData(2, 3, {1, 5, 2, 7, 0, 3});
  EXPECT_EQ(a.ArgMaxRow(0), 1);
  EXPECT_EQ(a.ArgMaxRow(1), 0);
}

TEST(TensorTest, ArgMaxRowTiePicksFirst) {
  Tensor a = Tensor::FromData(1, 3, {4, 4, 4});
  EXPECT_EQ(a.ArgMaxRow(0), 0);
}

TEST(MatMulTest, Small) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMulTest, IdentityIsNoop) {
  Rng rng(5);
  Tensor a = Tensor::Randn(4, 4, &rng);
  Tensor eye(4, 4);
  for (int64_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  Tensor c = MatMul(a, eye);
  EXPECT_TRUE(AllClose(c, a));
}

TEST(MatMulTest, TransAMatchesExplicitTranspose) {
  Rng rng(6);
  Tensor a = Tensor::Randn(5, 3, &rng);
  Tensor b = Tensor::Randn(5, 4, &rng);
  Tensor expect = MatMul(Transposed(a), b);
  Tensor got = MatMulTransA(a, b);
  EXPECT_TRUE(AllClose(got, expect));
}

TEST(MatMulTest, TransBMatchesExplicitTranspose) {
  Rng rng(8);
  Tensor a = Tensor::Randn(5, 3, &rng);
  Tensor b = Tensor::Randn(4, 3, &rng);
  Tensor expect = MatMul(a, Transposed(b));
  Tensor got = MatMulTransB(a, b);
  EXPECT_TRUE(AllClose(got, expect));
}

TEST(ReductionTest, ColSumRowSum) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor cs = ColSum(a);
  EXPECT_EQ(cs.rows(), 1);
  EXPECT_FLOAT_EQ(cs.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(cs.at(0, 2), 9.0f);
  Tensor rs = RowSum(a);
  EXPECT_EQ(rs.cols(), 1);
  EXPECT_FLOAT_EQ(rs.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(rs.at(1, 0), 15.0f);
}

TEST(TensorDeathTest, ScalarOnMatrixAborts) {
  Tensor a(2, 2);
  EXPECT_DEATH(a.scalar(), "scalar");
}

TEST(TensorDeathTest, MatMulShapeMismatchAborts) {
  Tensor a(2, 3);
  Tensor b(4, 2);
  EXPECT_DEATH(MatMul(a, b), "GR_CHECK");
}

}  // namespace
}  // namespace tensor
}  // namespace graphrare
