// Edge-case tests for the op library: extreme values, degenerate shapes,
// numerical stability.

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "test_support.h"

namespace graphrare {
namespace tensor {
namespace {

namespace ops = tensor::ops;
namespace ref = testing_ref;
using ref::AllClose;
using ref::HasNonFinite;

Variable Leaf(Tensor t) { return Variable(std::move(t), true); }

TEST(OpsEdgeTest, SegmentSoftmaxSingletonSegments) {
  Variable s(Tensor::FromData(3, 1, {7.0f, -2.0f, 0.5f}), false);
  Tensor alpha = ref::SegmentSoftmax(s, {0, 1, 2}, 3).value();
  for (int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(alpha.at(i, 0), 1.0f);
}

TEST(OpsEdgeTest, SegmentSoftmaxEmptySegmentsTolerated) {
  // Segment 1 has no edges; segments 0 and 2 normalise independently.
  Variable s(Tensor::FromData(4, 1, {1.0f, 1.0f, 3.0f, 3.0f}), false);
  Tensor alpha = ref::SegmentSoftmax(s, {0, 0, 2, 2}, 3).value();
  EXPECT_NEAR(alpha.at(0, 0), 0.5f, 1e-6);
  EXPECT_NEAR(alpha.at(2, 0), 0.5f, 1e-6);
}

TEST(OpsEdgeTest, ConcatSingleInputIsCopy) {
  Rng rng(1);
  Variable x = Leaf(Tensor::Randn(3, 4, &rng));
  Variable y = ops::ConcatCols({x});
  EXPECT_TRUE(AllClose(y.value(), x.value()));
  ops::SumAll(y).Backward();
  EXPECT_TRUE(AllClose(x.grad(), Tensor::Full(3, 4, 1.0f)));
}

TEST(OpsEdgeTest, GatherRowsEmptyIndex) {
  Rng rng(2);
  Variable x = Leaf(Tensor::Randn(3, 4, &rng));
  Variable y = ref::GatherRows(x, {});
  EXPECT_EQ(y.value().rows(), 0);
  EXPECT_EQ(y.value().cols(), 4);
}

TEST(OpsEdgeTest, HighDropoutStillUnbiased) {
  Rng rng(3);
  Variable x = Leaf(Tensor::Full(100, 100, 1.0f));
  Variable y = ops::Dropout(x, 0.9f, true, &rng);
  // E[y] = 1; with 10k samples the mean is close.
  EXPECT_NEAR(y.value().Mean(), 1.0f, 0.1f);
}

TEST(OpsEdgeTest, NllLossSingleRow) {
  Variable lp = Leaf(Tensor::FromData(1, 3, {-1.0f, -2.0f, -0.5f}));
  Variable loss = ref::NllLoss(lp, {2});
  EXPECT_FLOAT_EQ(loss.value().scalar(), 0.5f);
  loss.Backward();
  EXPECT_FLOAT_EQ(lp.grad().at(0, 2), -1.0f);
  EXPECT_FLOAT_EQ(lp.grad().at(0, 0), 0.0f);
}

TEST(OpsEdgeTest, ScatterAddAllToOneRow) {
  Variable x = Leaf(Tensor::Full(4, 2, 1.0f));
  Variable y = ref::ScatterAddRows(x, {1, 1, 1, 1}, 3);
  EXPECT_FLOAT_EQ(y.value().at(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.value().at(0, 0), 0.0f);
  ops::SumAll(ref::Square(y)).Backward();
  // d/dx_i = 2 * y[1,:] = 8 for every contributing row.
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(x.grad().at(i, 0), 8.0f);
  }
}

TEST(OpsEdgeTest, RowScaleByZeroKillsGradientToX) {
  Variable x = Leaf(Tensor::Full(2, 3, 1.0f));
  Variable s = Leaf(Tensor::FromData(2, 1, {0.0f, 2.0f}));
  ops::SumAll(ref::RowScale(x, s)).Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(x.grad().at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(s.grad().at(0, 0), 3.0f);  // sum of x row
}

TEST(OpsEdgeTest, ChainedGraphDeepComposition) {
  // 30-op chain exercises the topo sort on long graphs.
  Variable x = Leaf(Tensor::Scalar(0.5f));
  Variable y = x;
  for (int i = 0; i < 30; ++i) {
    y = ref::Tanh(ref::AddScalar(y, 0.01f));
  }
  ops::SumAll(y).Backward();
  EXPECT_TRUE(x.has_grad());
  EXPECT_GT(x.grad().scalar(), 0.0f);
  EXPECT_LT(x.grad().scalar(), 1.0f);
}

}  // namespace
}  // namespace tensor
}  // namespace graphrare
