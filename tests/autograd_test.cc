// Autograd correctness: every op is validated against central finite
// differences via CheckGradient (tests/test_support.h), plus tape-mechanics
// tests (accumulation, detach, pruning).

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "test_support.h"

namespace graphrare {
namespace tensor {
namespace {

namespace ops = tensor::ops;
namespace ref = testing_ref;
using ref::AllClose;

Variable Leaf(Tensor t) { return Variable(std::move(t), true); }

// Convenience: checks gradient of f wrt every input.
void ExpectGradientsOk(
    const std::function<Variable(const std::vector<Variable>&)>& f,
    std::vector<Variable> inputs) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    ref::GradCheckResult r = ref::CheckGradient(f, &inputs, i);
    EXPECT_TRUE(r.ok) << "input " << i << ": max_abs_err=" << r.max_abs_err
                      << " at flat index " << r.worst_index;
  }
}

TEST(AutogradTest, BackwardOnScalarSetsGradOne) {
  Variable x = Leaf(Tensor::Scalar(3.0f));
  x.Backward();
  EXPECT_FLOAT_EQ(x.grad().scalar(), 1.0f);
}

TEST(AutogradTest, AddGradientsBothParents) {
  Variable a = Leaf(Tensor::Full(2, 2, 1.0f));
  Variable b = Leaf(Tensor::Full(2, 2, 2.0f));
  Variable loss = ops::SumAll(ops::Add(a, b));
  loss.Backward();
  EXPECT_TRUE(AllClose(a.grad(), Tensor::Full(2, 2, 1.0f)));
  EXPECT_TRUE(AllClose(b.grad(), Tensor::Full(2, 2, 1.0f)));
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  Variable a = Leaf(Tensor::Scalar(2.0f));
  // loss = a + a -> dloss/da = 2.
  Variable loss = ops::Add(a, a);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad().scalar(), 2.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossBackwards) {
  Variable a = Leaf(Tensor::Scalar(1.0f));
  ops::Scale(a, 3.0f).Backward();
  ops::Scale(a, 4.0f).Backward();
  EXPECT_FLOAT_EQ(a.grad().scalar(), 7.0f);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad().scalar(), 0.0f);
}

TEST(AutogradTest, DetachStopsGradient) {
  Variable a = Leaf(Tensor::Scalar(2.0f));
  Variable d = ref::Mul(a, a).Detach();
  EXPECT_FALSE(d.requires_grad());
  Variable loss = ref::Mul(d, d);
  loss.Backward();
  EXPECT_FALSE(a.has_grad());
}

TEST(AutogradTest, NoGradParentsPrunesTape) {
  Variable a(Tensor::Scalar(2.0f), /*requires_grad=*/false);
  Variable y = ref::Mul(a, a);
  EXPECT_FALSE(y.requires_grad());
}

TEST(AutogradTest, DiamondGraphGradient) {
  // loss = (a*a) + (a*3): dloss/da = 2a + 3 = 7 at a=2.
  Variable a = Leaf(Tensor::Scalar(2.0f));
  Variable loss = ops::Add(ref::Mul(a, a), ops::Scale(a, 3.0f));
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad().scalar(), 7.0f);
}

// ---- Per-op finite-difference checks -------------------------------------

TEST(GradCheckTest, AddSubMul) {
  Rng rng(1);
  ExpectGradientsOk(
      [](const std::vector<Variable>& in) {
        return ops::SumAll(
            ref::Mul(ops::Add(in[0], in[1]), ops::Sub(in[0], in[1])));
      },
      {Leaf(Tensor::Randn(3, 4, &rng)), Leaf(Tensor::Randn(3, 4, &rng))});
}

TEST(GradCheckTest, MatMul) {
  Rng rng(2);
  ExpectGradientsOk(
      [](const std::vector<Variable>& in) {
        return ops::SumAll(ops::MatMul(in[0], in[1]));
      },
      {Leaf(Tensor::Randn(3, 4, &rng)), Leaf(Tensor::Randn(4, 2, &rng))});
}

TEST(GradCheckTest, AddBias) {
  Rng rng(3);
  ExpectGradientsOk(
      [](const std::vector<Variable>& in) {
        return ops::SumAll(ref::Square(ops::AddBias(in[0], in[1])));
      },
      {Leaf(Tensor::Randn(3, 4, &rng)), Leaf(Tensor::Randn(1, 4, &rng))});
}

TEST(GradCheckTest, ScaleAddScalarNeg) {
  Rng rng(4);
  ExpectGradientsOk(
      [](const std::vector<Variable>& in) {
        return ops::SumAll(
            ops::Scale(ref::AddScalar(ops::Scale(in[0], 2.5f), -1.0f), -1.0f));
      },
      {Leaf(Tensor::Randn(2, 5, &rng))});
}

TEST(GradCheckTest, SpMM) {
  Rng rng(5);
  CsrMatrix m = CsrMatrix::FromCoo(
      3, 4, {{0, 1, 2.0f}, {1, 0, -1.0f}, {2, 3, 0.5f}, {0, 3, 1.5f}});
  auto shared = std::make_shared<CsrMatrix>(m);
  ExpectGradientsOk(
      [shared](const std::vector<Variable>& in) {
        return ops::SumAll(ref::Square(ops::SpMM(shared, in[0])));
      },
      {Leaf(Tensor::Randn(4, 3, &rng))});
}

TEST(GradCheckTest, ActivationsSmooth) {
  Rng rng(6);
  // Tanh / Sigmoid are smooth everywhere; ELU smooth a.e.
  ExpectGradientsOk(
      [](const std::vector<Variable>& in) {
        return ops::SumAll(ref::Tanh(ops::Sigmoid(ops::Elu(in[0]))));
      },
      {Leaf(Tensor::Randn(3, 3, &rng))});
}

TEST(GradCheckTest, ReluAndLeakyReluAwayFromKink) {
  // Keep inputs away from 0 so finite differences are valid.
  Tensor t = Tensor::FromData(2, 3, {1.0f, -2.0f, 3.0f, -0.5f, 2.0f, -1.5f});
  ExpectGradientsOk(
      [](const std::vector<Variable>& in) {
        return ops::SumAll(
            ops::Add(ops::Relu(in[0]), ref::LeakyRelu(in[0], 0.2f)));
      },
      {Leaf(t)});
}

TEST(GradCheckTest, LogSoftmaxRows) {
  Rng rng(8);
  ExpectGradientsOk(
      [](const std::vector<Variable>& in) {
        return ops::SumAll(ref::Square(ref::LogSoftmaxRows(in[0])));
      },
      {Leaf(Tensor::Randn(4, 5, &rng))});
}

TEST(GradCheckTest, NllLoss) {
  Rng rng(10);
  std::vector<int64_t> labels = {0, 2, 1, 2};
  ExpectGradientsOk(
      [labels](const std::vector<Variable>& in) {
        return ref::NllLoss(ref::LogSoftmaxRows(in[0]), labels);
      },
      {Leaf(Tensor::Randn(4, 3, &rng))});
}

TEST(GradCheckTest, CrossEntropySubset) {
  Rng rng(11);
  std::vector<int64_t> index = {1, 3};
  std::vector<int64_t> labels = {2, 0};
  ExpectGradientsOk(
      [index, labels](const std::vector<Variable>& in) {
        return ops::CrossEntropy(in[0], index, labels);
      },
      {Leaf(Tensor::Randn(5, 3, &rng))});
}

TEST(GradCheckTest, ConcatCols) {
  Rng rng(13);
  ExpectGradientsOk(
      [](const std::vector<Variable>& in) {
        return ops::SumAll(ref::Square(ops::ConcatCols({in[0], in[1], in[2]})));
      },
      {Leaf(Tensor::Randn(3, 2, &rng)), Leaf(Tensor::Randn(3, 4, &rng)),
       Leaf(Tensor::Randn(3, 1, &rng))});
}

TEST(GradCheckTest, GatherRows) {
  Rng rng(14);
  std::vector<int64_t> idx = {2, 0, 2, 1};  // repeated index exercises accumulation
  ExpectGradientsOk(
      [idx](const std::vector<Variable>& in) {
        return ops::SumAll(ref::Square(ref::GatherRows(in[0], idx)));
      },
      {Leaf(Tensor::Randn(3, 4, &rng))});
}

TEST(GradCheckTest, ScatterAddRows) {
  Rng rng(15);
  std::vector<int64_t> idx = {1, 1, 0, 2};
  ExpectGradientsOk(
      [idx](const std::vector<Variable>& in) {
        return ops::SumAll(ref::Square(ref::ScatterAddRows(in[0], idx, 4)));
      },
      {Leaf(Tensor::Randn(4, 3, &rng))});
}

TEST(GradCheckTest, RowScale) {
  Rng rng(17);
  ExpectGradientsOk(
      [](const std::vector<Variable>& in) {
        return ops::SumAll(ref::Square(ref::RowScale(in[0], in[1])));
      },
      {Leaf(Tensor::Randn(4, 3, &rng)), Leaf(Tensor::Randn(4, 1, &rng))});
}

TEST(GradCheckTest, ScaleByScalar) {
  Rng rng(18);
  ExpectGradientsOk(
      [](const std::vector<Variable>& in) {
        return ops::SumAll(ref::Square(ops::ScaleByScalar(in[0], in[1])));
      },
      {Leaf(Tensor::Randn(3, 3, &rng)), Leaf(Tensor::Scalar(0.7f))});
}

TEST(GradCheckTest, SegmentSoftmax) {
  Rng rng(19);
  std::vector<int64_t> seg = {0, 0, 1, 1, 1, 2};
  ExpectGradientsOk(
      [seg](const std::vector<Variable>& in) {
        return ops::SumAll(
            ref::Square(ref::SegmentSoftmax(in[0], seg, 3)));
      },
      {Leaf(Tensor::Randn(6, 1, &rng))});
}

// ---- Dropout semantics ----------------------------------------------------

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(21);
  Variable x = Leaf(Tensor::Randn(4, 4, &rng));
  Variable y = ops::Dropout(x, 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(AllClose(y.value(), x.value()));
}

TEST(DropoutTest, ZeroProbabilityIsIdentity) {
  Rng rng(22);
  Variable x = Leaf(Tensor::Randn(4, 4, &rng));
  Variable y = ops::Dropout(x, 0.0f, /*training=*/true, &rng);
  EXPECT_TRUE(AllClose(y.value(), x.value()));
}

TEST(DropoutTest, MaskZerosAndRescales) {
  Rng rng(23);
  Variable x = Leaf(Tensor::Full(50, 50, 1.0f));
  Variable y = ops::Dropout(x, 0.5f, /*training=*/true, &rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.value().numel(); ++i) {
    const float v = y.value()[i];
    EXPECT_TRUE(v == 0.0f || std::abs(v - 2.0f) < 1e-6f);
    zeros += v == 0.0f ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 2500.0, 0.5, 0.05);
}

TEST(DropoutTest, GradientFollowsMask) {
  Rng rng(24);
  Variable x = Leaf(Tensor::Full(10, 10, 1.0f));
  Variable y = ops::Dropout(x, 0.3f, /*training=*/true, &rng);
  ops::SumAll(y).Backward();
  for (int64_t i = 0; i < x.grad().numel(); ++i) {
    const float g = x.grad()[i];
    const float v = y.value()[i];
    if (v == 0.0f) {
      EXPECT_EQ(g, 0.0f);
    } else {
      EXPECT_NEAR(g, 1.0f / 0.7f, 1e-5f);
    }
  }
}

// ---- Shape-mismatch death tests -------------------------------------------

TEST(AutogradDeathTest, BackwardOnMatrixAborts) {
  Variable x = Leaf(Tensor::Full(2, 2, 1.0f));
  EXPECT_DEATH(x.Backward(), "scalar root");
}

TEST(AutogradDeathTest, AddShapeMismatchAborts) {
  Variable a = Leaf(Tensor::Full(2, 2, 1.0f));
  Variable b = Leaf(Tensor::Full(2, 3, 1.0f));
  EXPECT_DEATH(ops::Add(a, b), "shape mismatch");
}

}  // namespace
}  // namespace tensor
}  // namespace graphrare
