#include "test_support.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "tensor/vector_math.h"

namespace graphrare {
namespace testing_ref {

using tensor::AutogradNode;
using tensor::MakeOpNode;
using tensor::Tensor;
using tensor::Variable;

namespace {

/// Adds `delta` into the parent's grad buffer if it participates in autograd.
void Accumulate(const std::shared_ptr<AutogradNode>& parent,
                const Tensor& delta) {
  if (!parent->requires_grad) return;
  parent->EnsureGrad();
  parent->grad.AddInPlace(delta);
}

/// Shared implementation for elementwise unary ops. `dydx` receives (x, y)
/// and returns the local derivative.
template <typename FwdFn, typename GradFn>
Variable UnaryElementwise(const Variable& a, FwdFn fwd, GradFn dydx) {
  Tensor out = a.value();
  float* p = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) p[i] = fwd(p[i]);
  Tensor saved_out = out;  // captured for gradient formulas that use y
  return MakeOpNode(
      std::move(out), {a},
      [saved_out = std::move(saved_out), dydx](AutogradNode* n) {
        if (!n->parents[0]->requires_grad) return;
        const Tensor& x = n->parents[0]->value;
        Tensor d = n->grad;
        float* pd = d.data();
        const float* px = x.data();
        const float* py = saved_out.data();
        for (int64_t i = 0; i < d.numel(); ++i) {
          pd[i] *= dydx(px[i], py[i]);
        }
        Accumulate(n->parents[0], d);
      });
}

}  // namespace

Variable Mul(const Variable& a, const Variable& b) {
  GR_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  out.MulInPlace(b.value());
  return MakeOpNode(std::move(out), {a, b}, [](AutogradNode* n) {
    if (n->parents[0]->requires_grad) {
      Tensor d = n->grad;
      d.MulInPlace(n->parents[1]->value);
      Accumulate(n->parents[0], d);
    }
    if (n->parents[1]->requires_grad) {
      Tensor d = n->grad;
      d.MulInPlace(n->parents[0]->value);
      Accumulate(n->parents[1], d);
    }
  });
}

Variable Square(const Variable& a) { return Mul(a, a); }

Variable MeanAll(const Variable& a) {
  const int64_t n_elem = a.value().numel();
  GR_CHECK_GT(n_elem, 0);
  return MakeOpNode(Tensor::Scalar(a.value().Mean()), {a},
                    [n_elem](AutogradNode* n) {
                      if (!n->parents[0]->requires_grad) return;
                      const float g =
                          n->grad.scalar() / static_cast<float>(n_elem);
                      n->parents[0]->EnsureGrad();
                      Tensor& pg = n->parents[0]->grad;
                      float* p = pg.data();
                      for (int64_t i = 0; i < pg.numel(); ++i) p[i] += g;
                    });
}

Variable Tanh(const Variable& a) {
  Tensor out = a.value();
  tensor::TanhInPlace(out.data(), out.numel());
  return MakeOpNode(std::move(out), {a}, [](AutogradNode* n) {
    if (!n->parents[0]->requires_grad) return;
    const float* py = n->value.data();
    Tensor d = n->grad;
    float* pd = d.data();
    for (int64_t i = 0; i < d.numel(); ++i) pd[i] *= 1.0f - py[i] * py[i];
    Accumulate(n->parents[0], d);
  });
}

Variable LogSoftmaxRows(const Variable& a) {
  const Tensor& x = a.value();
  Tensor out(x.rows(), x.cols());
  for (int64_t r = 0; r < x.rows(); ++r) {
    const float* px = x.row(r);
    float* po = out.row(r);
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t c = 0; c < x.cols(); ++c) mx = std::max(mx, px[c]);
    double lse = 0.0;
    for (int64_t c = 0; c < x.cols(); ++c) lse += std::exp(px[c] - mx);
    const float log_z = mx + static_cast<float>(std::log(lse));
    for (int64_t c = 0; c < x.cols(); ++c) po[c] = px[c] - log_z;
  }
  Tensor saved = out;
  return MakeOpNode(
      std::move(out), {a}, [saved = std::move(saved)](AutogradNode* n) {
        if (!n->parents[0]->requires_grad) return;
        // dX = G - softmax(x) * rowsum(G)
        Tensor d = n->grad;
        for (int64_t r = 0; r < d.rows(); ++r) {
          const float* pg = n->grad.row(r);
          const float* plp = saved.row(r);
          float* pd = d.row(r);
          float gsum = 0.0f;
          for (int64_t c = 0; c < d.cols(); ++c) gsum += pg[c];
          for (int64_t c = 0; c < d.cols(); ++c) {
            pd[c] = pg[c] - std::exp(plp[c]) * gsum;
          }
        }
        Accumulate(n->parents[0], d);
      });
}

Variable AddScalar(const Variable& a, float c) {
  Tensor out = a.value();
  float* p = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) p[i] += c;
  return MakeOpNode(std::move(out), {a}, [](AutogradNode* n) {
    Accumulate(n->parents[0], n->grad);
  });
}

Variable LeakyRelu(const Variable& a, float negative_slope) {
  return UnaryElementwise(
      a,
      [negative_slope](float x) { return x > 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) {
        return x > 0.0f ? 1.0f : negative_slope;
      });
}

Variable Log(const Variable& a) {
  return UnaryElementwise(
      a,
      [](float x) {
        GR_DCHECK(x > 0.0f);
        return std::log(x);
      },
      [](float x, float) { return 1.0f / x; });
}

Variable NllLoss(const Variable& logp, const std::vector<int64_t>& labels) {
  const Tensor& lp = logp.value();
  GR_CHECK_EQ(lp.rows(), static_cast<int64_t>(labels.size()));
  GR_CHECK_GT(lp.rows(), 0);
  double loss = 0.0;
  for (int64_t i = 0; i < lp.rows(); ++i) {
    GR_CHECK(labels[static_cast<size_t>(i)] >= 0 &&
             labels[static_cast<size_t>(i)] < lp.cols())
        << "label out of range";
    loss -= lp.at(i, labels[static_cast<size_t>(i)]);
  }
  loss /= static_cast<double>(lp.rows());
  return MakeOpNode(Tensor::Scalar(static_cast<float>(loss)), {logp},
                    [labels](AutogradNode* n) {
                      if (!n->parents[0]->requires_grad) return;
                      const float g = n->grad.scalar();
                      const int64_t m = n->parents[0]->value.rows();
                      n->parents[0]->EnsureGrad();
                      Tensor& pg = n->parents[0]->grad;
                      const float scale = g / static_cast<float>(m);
                      for (int64_t i = 0; i < m; ++i) {
                        pg.at(i, labels[static_cast<size_t>(i)]) -= scale;
                      }
                    });
}

Variable GatherRows(const Variable& x, std::vector<int64_t> idx) {
  const Tensor& v = x.value();
  Tensor out(static_cast<int64_t>(idx.size()), v.cols());
  for (size_t i = 0; i < idx.size(); ++i) {
    GR_CHECK(idx[i] >= 0 && idx[i] < v.rows()) << "gather index out of range";
    std::copy(v.row(idx[i]), v.row(idx[i]) + v.cols(),
              out.row(static_cast<int64_t>(i)));
  }
  return MakeOpNode(std::move(out), {x}, [idx = std::move(idx)](AutogradNode* n) {
    if (!n->parents[0]->requires_grad) return;
    n->parents[0]->EnsureGrad();
    Tensor& pg = n->parents[0]->grad;
    for (size_t i = 0; i < idx.size(); ++i) {
      const float* src = n->grad.row(static_cast<int64_t>(i));
      float* dst = pg.row(idx[i]);
      for (int64_t c = 0; c < pg.cols(); ++c) dst[c] += src[c];
    }
  });
}

Variable ScatterAddRows(const Variable& x, std::vector<int64_t> idx,
                        int64_t num_rows) {
  const Tensor& v = x.value();
  GR_CHECK_EQ(v.rows(), static_cast<int64_t>(idx.size()));
  Tensor out(num_rows, v.cols());
  for (size_t i = 0; i < idx.size(); ++i) {
    GR_CHECK(idx[i] >= 0 && idx[i] < num_rows) << "scatter index out of range";
    const float* src = v.row(static_cast<int64_t>(i));
    float* dst = out.row(idx[i]);
    for (int64_t c = 0; c < v.cols(); ++c) dst[c] += src[c];
  }
  return MakeOpNode(std::move(out), {x}, [idx = std::move(idx)](AutogradNode* n) {
    if (!n->parents[0]->requires_grad) return;
    n->parents[0]->EnsureGrad();
    Tensor& pg = n->parents[0]->grad;
    for (size_t i = 0; i < idx.size(); ++i) {
      const float* src = n->grad.row(idx[i]);
      float* dst = pg.row(static_cast<int64_t>(i));
      for (int64_t c = 0; c < pg.cols(); ++c) dst[c] += src[c];
    }
  });
}

Variable RowScale(const Variable& x, const Variable& s) {
  const Tensor& v = x.value();
  GR_CHECK_EQ(s.value().rows(), v.rows());
  GR_CHECK_EQ(s.value().cols(), 1);
  Tensor out = v;
  for (int64_t r = 0; r < v.rows(); ++r) {
    const float sv = s.value().at(r, 0);
    float* p = out.row(r);
    for (int64_t c = 0; c < v.cols(); ++c) p[c] *= sv;
  }
  return MakeOpNode(std::move(out), {x, s}, [](AutogradNode* n) {
    const Tensor& xv = n->parents[0]->value;
    const Tensor& sv = n->parents[1]->value;
    if (n->parents[0]->requires_grad) {
      n->parents[0]->EnsureGrad();
      Tensor& pg = n->parents[0]->grad;
      for (int64_t r = 0; r < pg.rows(); ++r) {
        const float svr = sv.at(r, 0);
        const float* g = n->grad.row(r);
        float* p = pg.row(r);
        for (int64_t c = 0; c < pg.cols(); ++c) p[c] += g[c] * svr;
      }
    }
    if (n->parents[1]->requires_grad) {
      n->parents[1]->EnsureGrad();
      Tensor& pg = n->parents[1]->grad;
      for (int64_t r = 0; r < xv.rows(); ++r) {
        const float* g = n->grad.row(r);
        const float* xr = xv.row(r);
        float dot = 0.0f;
        for (int64_t c = 0; c < xv.cols(); ++c) dot += g[c] * xr[c];
        pg.at(r, 0) += dot;
      }
    }
  });
}

Variable SegmentSoftmax(const Variable& scores, std::vector<int64_t> seg,
                        int64_t num_segments) {
  const Tensor& sc = scores.value();
  GR_CHECK_EQ(sc.cols(), 1);
  GR_CHECK_EQ(sc.rows(), static_cast<int64_t>(seg.size()));
  const int64_t e = sc.rows();

  std::vector<float> seg_max(static_cast<size_t>(num_segments),
                             -std::numeric_limits<float>::infinity());
  for (int64_t i = 0; i < e; ++i) {
    const int64_t s = seg[static_cast<size_t>(i)];
    GR_CHECK(s >= 0 && s < num_segments) << "segment index out of range";
    seg_max[static_cast<size_t>(s)] =
        std::max(seg_max[static_cast<size_t>(s)], sc.at(i, 0));
  }
  std::vector<double> seg_sum(static_cast<size_t>(num_segments), 0.0);
  Tensor out(e, 1);
  for (int64_t i = 0; i < e; ++i) {
    const int64_t s = seg[static_cast<size_t>(i)];
    out.at(i, 0) = std::exp(sc.at(i, 0) - seg_max[static_cast<size_t>(s)]);
    seg_sum[static_cast<size_t>(s)] += out.at(i, 0);
  }
  for (int64_t i = 0; i < e; ++i) {
    const int64_t s = seg[static_cast<size_t>(i)];
    out.at(i, 0) = static_cast<float>(out.at(i, 0) /
                                      seg_sum[static_cast<size_t>(s)]);
  }
  Tensor saved = out;
  return MakeOpNode(
      std::move(out), {scores},
      [seg = std::move(seg), num_segments,
       saved = std::move(saved)](AutogradNode* n) {
        if (!n->parents[0]->requires_grad) return;
        // d score_i = alpha_i * (G_i - sum_{j in seg(i)} alpha_j G_j)
        std::vector<double> seg_dot(static_cast<size_t>(num_segments), 0.0);
        const int64_t e = saved.rows();
        for (int64_t i = 0; i < e; ++i) {
          seg_dot[static_cast<size_t>(seg[static_cast<size_t>(i)])] +=
              static_cast<double>(saved.at(i, 0)) * n->grad.at(i, 0);
        }
        n->parents[0]->EnsureGrad();
        Tensor& pg = n->parents[0]->grad;
        for (int64_t i = 0; i < e; ++i) {
          const double dot =
              seg_dot[static_cast<size_t>(seg[static_cast<size_t>(i)])];
          pg.at(i, 0) += static_cast<float>(
              saved.at(i, 0) * (n->grad.at(i, 0) - dot));
        }
      });
}

GradCheckResult CheckGradient(
    const std::function<Variable(const std::vector<Variable>&)>& f,
    std::vector<Variable>* inputs, size_t check_index, float eps, float atol,
    float rtol) {
  GR_CHECK(inputs != nullptr);
  GR_CHECK_LT(check_index, inputs->size());

  // Analytic gradient.
  for (auto& in : *inputs) in.ZeroGrad();
  Variable loss = f(*inputs);
  GR_CHECK(loss.value().is_scalar());
  loss.Backward();
  Variable& target = (*inputs)[check_index];
  GR_CHECK(target.requires_grad());
  Tensor analytic = target.has_grad()
                        ? target.grad()
                        : Tensor(target.rows(), target.cols());

  GradCheckResult result;
  Tensor* x = target.mutable_value();
  for (int64_t i = 0; i < x->numel(); ++i) {
    const float orig = (*x)[i];
    (*x)[i] = orig + eps;
    const float f_plus = f(*inputs).value().scalar();
    (*x)[i] = orig - eps;
    const float f_minus = f(*inputs).value().scalar();
    (*x)[i] = orig;
    const float numeric = (f_plus - f_minus) / (2.0f * eps);
    const float abs_err = std::abs(analytic[i] - numeric);
    const float rel_err =
        abs_err / std::max(1e-8f, std::abs(numeric));
    if (abs_err > result.max_abs_err) {
      result.max_abs_err = abs_err;
      result.worst_index = i;
    }
    result.max_rel_err = std::max(result.max_rel_err, rel_err);
    if (abs_err > atol + rtol * std::abs(numeric)) {
      result.ok = false;
    }
  }
  return result;
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::abs(a[i] - b[i]) > atol + rtol * std::abs(b[i])) return false;
  }
  return true;
}

float MaxAbs(const Tensor& t) {
  float m = 0.0f;
  for (int64_t i = 0; i < t.numel(); ++i) m = std::max(m, std::abs(t[i]));
  return m;
}

bool HasNonFinite(const Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(t[i])) return true;
  }
  return false;
}

Tensor Transposed(const Tensor& t) {
  Tensor out(t.cols(), t.rows());
  for (int64_t r = 0; r < t.rows(); ++r) {
    for (int64_t c = 0; c < t.cols(); ++c) out.at(c, r) = t.at(r, c);
  }
  return out;
}

Tensor ToDense(const tensor::CsrMatrix& m) {
  Tensor d(m.rows(), m.cols());
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t p = m.row_ptr()[static_cast<size_t>(r)];
         p < m.row_ptr()[static_cast<size_t>(r) + 1]; ++p) {
      d.at(r, m.col_idx()[static_cast<size_t>(p)]) =
          m.values()[static_cast<size_t>(p)];
    }
  }
  return d;
}

float At(const tensor::CsrMatrix& m, int64_t r, int64_t c) {
  GR_CHECK(r >= 0 && r < m.rows());
  GR_CHECK(c >= 0 && c < m.cols());
  const auto& cols = m.col_idx();
  const auto begin = cols.begin() + m.row_ptr()[static_cast<size_t>(r)];
  const auto end = cols.begin() + m.row_ptr()[static_cast<size_t>(r) + 1];
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0f;
  return m.values()[static_cast<size_t>(it - cols.begin())];
}

std::vector<int64_t> KHopNeighbors(const graph::Graph& g, int64_t v,
                                   int max_hops) {
  GR_CHECK(v >= 0 && v < g.num_nodes());
  GR_CHECK_GE(max_hops, 0);
  std::vector<int> dist(static_cast<size_t>(g.num_nodes()), -1);
  std::queue<int64_t> q;
  dist[static_cast<size_t>(v)] = 0;
  q.push(v);
  std::vector<int64_t> out;
  while (!q.empty()) {
    const int64_t u = q.front();
    q.pop();
    if (dist[static_cast<size_t>(u)] >= max_hops) continue;
    for (const int64_t* p = g.NeighborsBegin(u); p != g.NeighborsEnd(u); ++p) {
      if (dist[static_cast<size_t>(*p)] < 0) {
        dist[static_cast<size_t>(*p)] = dist[static_cast<size_t>(u)] + 1;
        out.push_back(*p);
        q.push(*p);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace testing_ref
}  // namespace graphrare
