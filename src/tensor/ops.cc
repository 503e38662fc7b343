#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/parallel.h"
#include "tensor/vector_math.h"

namespace graphrare {
namespace tensor {
namespace ops {

namespace {

/// Adds `delta` into the parent's grad buffer if it participates in autograd.
void Accumulate(const std::shared_ptr<AutogradNode>& parent,
                const Tensor& delta) {
  if (!parent->requires_grad) return;
  parent->EnsureGrad();
  parent->grad.AddInPlace(delta);
}

/// Inverted-dropout mask over n elements, one draw per element in index
/// order: pm[i] = 0 where rng->Bernoulli(p) would succeed, 1 / (1 - p)
/// elsewhere. Bernoulli tests Uniform() < p, that is
/// (Next() >> 11) * 2^-53 < p; p * 2^53 is exact in double, so for the
/// integer draw this is (Next() >> 11) < ceil(p * 2^53). The same draws in
/// the same order, compared as integers. The select ANDs the bits of
/// 1 / (1 - p) with an all-ones or all-zero word (+0 for a dropped
/// element, as before): GCC turns both a `?:` and a multiply by 0 or 1
/// into a branch, which mispredicts on every other element at p = 0.5.
/// The word leaves through a float store, so the generator's state stays
/// in registers across the loop.
void DropoutMask(float p, Rng* rng, float* pm, int64_t n) {
  const uint64_t threshold =
      static_cast<uint64_t>(std::ceil(static_cast<double>(p) * 0x1.0p53));
  const float scale = 1.0f / (1.0f - p);
  uint32_t scale_bits;
  std::memcpy(&scale_bits, &scale, sizeof(scale));
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t kept =
        0u - static_cast<uint32_t>((rng->Next() >> 11) >= threshold);
    const uint32_t bits = scale_bits & kept;
    float m;
    std::memcpy(&m, &bits, sizeof(m));
    pm[i] = m;
  }
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  GR_CHECK(a.value().SameShape(b.value()))
      << "Add shape mismatch " << a.value().rows() << "x" << a.value().cols()
      << " vs " << b.value().rows() << "x" << b.value().cols();
  Tensor out = a.value();
  out.AddInPlace(b.value());
  return MakeOpNode(std::move(out), {a, b}, [](AutogradNode* n) {
    Accumulate(n->parents[0], n->grad);
    Accumulate(n->parents[1], n->grad);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  GR_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  out.AxpyInPlace(-1.0f, b.value());
  return MakeOpNode(std::move(out), {a, b}, [](AutogradNode* n) {
    Accumulate(n->parents[0], n->grad);
    if (n->parents[1]->requires_grad) {
      n->parents[1]->EnsureGrad();
      n->parents[1]->grad.AxpyInPlace(-1.0f, n->grad);
    }
  });
}

Variable AddBias(const Variable& a, const Variable& bias) {
  GR_CHECK_EQ(bias.value().rows(), 1);
  GR_CHECK_EQ(bias.value().cols(), a.value().cols());
  Tensor out = a.value();
  const float* pb = bias.value().data();
  for (int64_t r = 0; r < out.rows(); ++r) {
    float* pr = out.row(r);
    for (int64_t c = 0; c < out.cols(); ++c) pr[c] += pb[c];
  }
  return MakeOpNode(std::move(out), {a, bias}, [](AutogradNode* n) {
    Accumulate(n->parents[0], n->grad);
    if (n->parents[1]->requires_grad) {
      Accumulate(n->parents[1], ColSum(n->grad));
    }
  });
}

Variable AddBiasRelu(const Variable& a, const Variable& bias) {
  GR_CHECK_EQ(bias.value().rows(), 1);
  GR_CHECK_EQ(bias.value().cols(), a.value().cols());
  Tensor out = a.value();
  const float* pb = bias.value().data();
  const int64_t cols = out.cols();
  {
    float* po = out.data();
    ParallelFor(out.rows(), 256, [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        float* pr = po + r * cols;
        for (int64_t c = 0; c < cols; ++c) {
          const float v = pr[c] + pb[c];
          pr[c] = v > 0.0f ? v : 0.0f;
        }
      }
    });
  }
  // The mask is recoverable from the saved output (y > 0 iff x > 0), so no
  // extra buffer is captured.
  return MakeOpNode(std::move(out), {a, bias}, [](AutogradNode* n) {
    const Tensor& y = n->value;
    const int64_t rows = y.rows();
    const int64_t cols = y.cols();
    if (n->parents[0]->requires_grad) {
      n->parents[0]->EnsureGrad();
      Tensor& pg = n->parents[0]->grad;
      ParallelFor(rows, 256, [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float* gy = n->grad.row(r);
          const float* py = y.row(r);
          float* pgr = pg.row(r);
          for (int64_t c = 0; c < cols; ++c) {
            if (py[c] > 0.0f) pgr[c] += gy[c];
          }
        }
      });
    }
    if (n->parents[1]->requires_grad) {
      // Masked column sums with the same fixed row-block structure as
      // ColSum, so the fused path stays bitwise equal to the
      // Relu -> AddBias backward chain at any size.
      Tensor db = ParallelReduce<Tensor>(
          rows, kColSumRowBlock, Tensor(1, cols),
          [&](int64_t r0, int64_t r1) {
            Tensor partial(1, cols);
            float* po = partial.data();
            for (int64_t r = r0; r < r1; ++r) {
              const float* gy = n->grad.row(r);
              const float* py = y.row(r);
              for (int64_t c = 0; c < cols; ++c) {
                if (py[c] > 0.0f) po[c] += gy[c];
              }
            }
            return partial;
          },
          [](Tensor acc, Tensor partial) {
            acc.AddInPlace(partial);
            return acc;
          });
      Accumulate(n->parents[1], db);
    }
  });
}

Variable Scale(const Variable& a, float c) {
  Tensor out = a.value();
  out.ScaleInPlace(c);
  return MakeOpNode(std::move(out), {a}, [c](AutogradNode* n) {
    if (n->parents[0]->requires_grad) {
      n->parents[0]->EnsureGrad();
      n->parents[0]->grad.AxpyInPlace(c, n->grad);
    }
  });
}

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor out = tensor::MatMul(a.value(), b.value());
  return MakeOpNode(std::move(out), {a, b}, [](AutogradNode* n) {
    // dA = G * B^T ; dB = A^T * G
    if (n->parents[0]->requires_grad) {
      Accumulate(n->parents[0],
                 tensor::MatMulTransB(n->grad, n->parents[1]->value));
    }
    if (n->parents[1]->requires_grad) {
      Accumulate(n->parents[1],
                 tensor::MatMulTransA(n->parents[0]->value, n->grad));
    }
  });
}

Variable LinearTanh(const Variable& x, const Variable& w, const Variable& b) {
  GR_CHECK_EQ(b.value().rows(), 1);
  GR_CHECK_EQ(b.value().cols(), w.value().cols());
  Tensor out = tensor::MatMul(x.value(), w.value());
  const float* pb = b.value().data();
  const int64_t cols = out.cols();
  float* po = out.data();
  for (int64_t r = 0; r < out.rows(); ++r) {
    for (int64_t c = 0; c < cols; ++c) po[r * cols + c] += pb[c];
  }
  TanhInPlace(po, out.numel());
  return MakeOpNode(std::move(out), {x, w, b}, [](AutogradNode* n) {
    // The chain's Tanh backward, d = g * (1 - y^2). The chain then added d
    // into two zeroed grad buffers, turning a -0 into +0; every reduction
    // below starts from +0 as well, so a -0 in d reaches no output.
    const float* py = n->value.data();
    const float* pg = n->grad.data();
    Tensor d = Tensor::Uninitialized(n->value.rows(), n->value.cols());
    float* pd = d.data();
    for (int64_t i = 0; i < d.numel(); ++i) {
      pd[i] = pg[i] * (1.0f - py[i] * py[i]);
    }
    if (n->parents[0]->requires_grad) {
      Accumulate(n->parents[0],
                 tensor::MatMulTransB(d, n->parents[1]->value));
    }
    if (n->parents[1]->requires_grad) {
      Accumulate(n->parents[1],
                 tensor::MatMulTransA(n->parents[0]->value, d));
    }
    if (n->parents[2]->requires_grad) Accumulate(n->parents[2], ColSum(d));
  });
}

Variable SpMM(std::shared_ptr<const CsrMatrix> s, const Variable& x) {
  GR_CHECK(s != nullptr);
  Tensor out = s->SpMM(x.value());
  return MakeOpNode(std::move(out), {x}, [s](AutogradNode* n) {
    if (n->parents[0]->requires_grad) {
      Accumulate(n->parents[0], s->Transposed()->SpMM(n->grad));
    }
  });
}

namespace {

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

Variable Relu(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Variable Elu(const Variable& a, float alpha) {
  return UnaryElementwise(
      a,
      [alpha](float x) { return x > 0.0f ? x : alpha * (std::exp(x) - 1.0f); },
      [alpha](float x, float y) { return x > 0.0f ? 1.0f : y + alpha; });
}

Variable Sigmoid(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Variable Dropout(const Variable& a, float p, bool training, Rng* rng) {
  GR_CHECK(p >= 0.0f && p < 1.0f) << "dropout p must be in [0,1), got " << p;
  if (!training || p == 0.0f) return a;
  GR_CHECK(rng != nullptr);
  Tensor mask = Tensor::Uninitialized(a.value().rows(), a.value().cols());
  DropoutMask(p, rng, mask.data(), mask.numel());
  Tensor out = a.value();
  out.MulInPlace(mask);
  return MakeOpNode(std::move(out), {a},
                    [mask = std::move(mask)](AutogradNode* n) {
                      if (!n->parents[0]->requires_grad) return;
                      Tensor d = n->grad;
                      d.MulInPlace(mask);
                      Accumulate(n->parents[0], d);
                    });
}

Variable LogSoftmaxNll(const Variable& logits, std::vector<int64_t> index,
                       std::vector<int64_t> labels) {
  GR_CHECK_EQ(index.size(), labels.size());
  GR_CHECK(!index.empty());
  const Tensor& x = logits.value();
  const int64_t m = static_cast<int64_t>(index.size());
  const int64_t cols = x.cols();
  GR_CHECK_GT(cols, 0);
  for (int64_t i = 0; i < m; ++i) {
    GR_CHECK(index[static_cast<size_t>(i)] >= 0 &&
             index[static_cast<size_t>(i)] < x.rows())
        << "gather index out of range";
    GR_CHECK(labels[static_cast<size_t>(i)] >= 0 &&
             labels[static_cast<size_t>(i)] < cols)
        << "label out of range";
  }

  // One pass per selected row: row max, log partition, and the picked
  // log-probability. log_z is saved so backward can rebuild the softmax
  // factors from the parent's logits without a stored (m, c) matrix.
  Tensor logz(m, 1);
  Tensor picked(m, 1);
  ParallelFor(m, 256, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* px = x.row(index[static_cast<size_t>(i)]);
      float mx = -std::numeric_limits<float>::infinity();
      for (int64_t c = 0; c < cols; ++c) mx = std::max(mx, px[c]);
      double lse = 0.0;
      for (int64_t c = 0; c < cols; ++c) lse += std::exp(px[c] - mx);
      const float log_z = mx + static_cast<float>(std::log(lse));
      logz.at(i, 0) = log_z;
      picked.at(i, 0) = px[labels[static_cast<size_t>(i)]] - log_z;
    }
  });
  double loss = 0.0;
  for (int64_t i = 0; i < m; ++i) loss -= picked.at(i, 0);
  loss /= static_cast<double>(m);

  return MakeOpNode(
      Tensor::Scalar(static_cast<float>(loss)), {logits},
      [index = std::move(index), labels = std::move(labels),
       logz = std::move(logz)](AutogradNode* n) {
        if (!n->parents[0]->requires_grad) return;
        const Tensor& x = n->parents[0]->value;
        const int64_t cols = x.cols();
        const float g = n->grad.scalar();
        const float scale = g / static_cast<float>(index.size());
        n->parents[0]->EnsureGrad();
        Tensor& pg = n->parents[0]->grad;
        // Serial over the selection: duplicate indices must accumulate in
        // a fixed order.
        for (size_t i = 0; i < index.size(); ++i) {
          const int64_t r = index[i];
          const float lz = logz.at(static_cast<int64_t>(i), 0);
          const float* px = x.row(r);
          float* pgr = pg.row(r);
          for (int64_t c = 0; c < cols; ++c) {
            pgr[c] += scale * std::exp(px[c] - lz);
          }
          pgr[labels[i]] -= scale;
        }
      });
}

Variable SumAll(const Variable& a) {
  return MakeOpNode(Tensor::Scalar(a.value().Sum()), {a},
                    [](AutogradNode* n) {
                      if (!n->parents[0]->requires_grad) return;
                      const float g = n->grad.scalar();
                      n->parents[0]->EnsureGrad();
                      Tensor& pg = n->parents[0]->grad;
                      float* p = pg.data();
                      for (int64_t i = 0; i < pg.numel(); ++i) p[i] += g;
                    });
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  GR_CHECK(!parts.empty());
  const int64_t rows = parts[0].value().rows();
  int64_t total_cols = 0;
  for (const auto& p : parts) {
    GR_CHECK_EQ(p.value().rows(), rows);
    total_cols += p.value().cols();
  }
  Tensor out(rows, total_cols);
  std::vector<int64_t> offsets;
  offsets.reserve(parts.size() + 1);
  int64_t off = 0;
  for (const auto& p : parts) {
    offsets.push_back(off);
    const Tensor& v = p.value();
    for (int64_t r = 0; r < rows; ++r) {
      std::copy(v.row(r), v.row(r) + v.cols(), out.row(r) + off);
    }
    off += v.cols();
  }
  offsets.push_back(off);
  return MakeOpNode(std::move(out), parts,
                    [offsets](AutogradNode* n) {
                      for (size_t k = 0; k < n->parents.size(); ++k) {
                        auto& parent = n->parents[k];
                        if (!parent->requires_grad) continue;
                        parent->EnsureGrad();
                        Tensor& pg = parent->grad;
                        const int64_t o = offsets[k];
                        for (int64_t r = 0; r < pg.rows(); ++r) {
                          const float* src = n->grad.row(r) + o;
                          float* dst = pg.row(r);
                          for (int64_t c = 0; c < pg.cols(); ++c) {
                            dst[c] += src[c];
                          }
                        }
                      }
                    });
}

Variable ScaleByScalar(const Variable& x, const Variable& s) {
  GR_CHECK(s.value().is_scalar());
  Tensor out = x.value();
  out.ScaleInPlace(s.value().scalar());
  return MakeOpNode(std::move(out), {x, s}, [](AutogradNode* n) {
    const float sv = n->parents[1]->value.scalar();
    if (n->parents[0]->requires_grad) {
      n->parents[0]->EnsureGrad();
      n->parents[0]->grad.AxpyInPlace(sv, n->grad);
    }
    if (n->parents[1]->requires_grad) {
      const Tensor& xv = n->parents[0]->value;
      double dot = 0.0;
      for (int64_t i = 0; i < xv.numel(); ++i) dot += xv[i] * n->grad[i];
      n->parents[1]->EnsureGrad();
      n->parents[1]->grad[0] += static_cast<float>(dot);
    }
  });
}

Variable GatSegmentAttention(const Variable& h, const Variable& sl,
                             const Variable& sr, std::vector<int64_t> src,
                             std::vector<int64_t> dst, int64_t num_nodes,
                             float negative_slope, float dropout_p,
                             bool training, Rng* rng) {
  const Tensor& hv = h.value();
  GR_CHECK_EQ(sl.value().cols(), 1);
  GR_CHECK_EQ(sr.value().cols(), 1);
  GR_CHECK_EQ(sl.value().rows(), hv.rows());
  GR_CHECK_EQ(sr.value().rows(), hv.rows());
  GR_CHECK_EQ(src.size(), dst.size());
  GR_CHECK(dropout_p >= 0.0f && dropout_p < 1.0f)
      << "dropout p must be in [0,1), got " << dropout_p;
  const int64_t e = static_cast<int64_t>(src.size());
  const int64_t f = hv.cols();
  for (int64_t i = 0; i < e; ++i) {
    GR_CHECK(src[static_cast<size_t>(i)] >= 0 &&
             src[static_cast<size_t>(i)] < hv.rows())
        << "edge src out of range";
    GR_CHECK(dst[static_cast<size_t>(i)] >= 0 &&
             dst[static_cast<size_t>(i)] < num_nodes)
        << "edge dst out of range";
  }
  const float* psl = sl.value().data();
  const float* psr = sr.value().data();

  // Attention scores + segment softmax, numerically step-for-step the
  // LeakyRelu(sl[src] + sr[dst]) -> SegmentSoftmax chain: float segment
  // max, float exp(score - max), double segment sum in ascending edge
  // order, float(w / sum) weights.
  std::vector<float> escore(static_cast<size_t>(e));
  std::vector<float> seg_max(static_cast<size_t>(num_nodes),
                             -std::numeric_limits<float>::infinity());
  for (int64_t i = 0; i < e; ++i) {
    const float pre = psl[src[static_cast<size_t>(i)]] +
                      psr[dst[static_cast<size_t>(i)]];
    const float sc = pre > 0.0f ? pre : negative_slope * pre;
    escore[static_cast<size_t>(i)] = sc;
    const size_t s = static_cast<size_t>(dst[static_cast<size_t>(i)]);
    seg_max[s] = std::max(seg_max[s], sc);
  }
  std::vector<double> seg_sum(static_cast<size_t>(num_nodes), 0.0);
  Tensor alpha(e, 1);
  float* pa = alpha.data();
  for (int64_t i = 0; i < e; ++i) {
    const size_t s = static_cast<size_t>(dst[static_cast<size_t>(i)]);
    pa[i] = std::exp(escore[static_cast<size_t>(i)] - seg_max[s]);
    seg_sum[s] += pa[i];
  }
  for (int64_t i = 0; i < e; ++i) {
    const size_t s = static_cast<size_t>(dst[static_cast<size_t>(i)]);
    pa[i] = static_cast<float>(pa[i] / seg_sum[s]);
  }

  // Attention dropout: the mask ops::Dropout would draw on the (e, 1)
  // alpha tensor, so the RNG stream downstream of this op is unchanged by
  // the fusion.
  const bool use_dropout = training && dropout_p > 0.0f;
  Tensor mask;
  if (use_dropout) {
    GR_CHECK(rng != nullptr);
    mask = Tensor::Uninitialized(e, 1);
    DropoutMask(dropout_p, rng, mask.data(), e);
  }
  const float* pm = use_dropout ? mask.data() : nullptr;

  // Messages scattered straight into the output, ascending edge order
  // exactly like ScatterAddRows (the dst segments are interleaved, so the
  // scatter stays serial — same cost the chain paid).
  Tensor out(num_nodes, f);
  float* po = out.data();
  const float* ph = hv.data();
  for (int64_t i = 0; i < e; ++i) {
    const float a =
        use_dropout ? pa[i] * pm[i] : pa[i];
    const float* hr = ph + src[static_cast<size_t>(i)] * f;
    float* orow = po + dst[static_cast<size_t>(i)] * f;
    for (int64_t c = 0; c < f; ++c) orow[c] += a * hr[c];
  }

  return MakeOpNode(
      std::move(out), {h, sl, sr},
      [src = std::move(src), dst = std::move(dst), alpha = std::move(alpha),
       mask = std::move(mask), use_dropout, negative_slope,
       num_nodes](AutogradNode* n) {
        const Tensor& hv = n->parents[0]->value;
        const float* psl = n->parents[1]->value.data();
        const float* psr = n->parents[2]->value.data();
        const int64_t e = alpha.rows();
        const int64_t f = hv.cols();
        const float* pa = alpha.data();
        const float* pm = use_dropout ? mask.data() : nullptr;
        const bool need_h = n->parents[0]->requires_grad;
        const bool need_sl = n->parents[1]->requires_grad;
        const bool need_sr = n->parents[2]->requires_grad;

        // ScatterAdd + RowScale + Gather backward in one edge pass:
        // d_alpha_i is the float ascending-c dot the RowScale backward
        // computes, and h's gradient receives each edge's contribution in
        // the same ascending edge order the chain's gather-scatter used.
        std::vector<float> d_alpha(static_cast<size_t>(e));
        Tensor* hg = nullptr;
        if (need_h) hg = n->parents[0]->EnsureGrad();
        const float* pg = n->grad.data();
        for (int64_t i = 0; i < e; ++i) {
          const float* g = pg + dst[static_cast<size_t>(i)] * f;
          const float* hr =
              hv.data() + src[static_cast<size_t>(i)] * f;
          float dot = 0.0f;
          for (int64_t c = 0; c < f; ++c) dot += g[c] * hr[c];
          const float ad = use_dropout ? pa[i] * pm[i] : pa[i];
          // Dropout backward folds into the same pass: d(alpha) = dot * m.
          d_alpha[static_cast<size_t>(i)] =
              use_dropout ? dot * pm[i] : dot;
          if (need_h) {
            float* hgr = hg->data() + src[static_cast<size_t>(i)] * f;
            for (int64_t c = 0; c < f; ++c) hgr[c] += g[c] * ad;
          }
        }
        if (!need_sl && !need_sr) return;

        // SegmentSoftmax backward: double segment dots in ascending edge
        // order, then d_e -> leaky-relu mask -> scatter into sl / sr. The
        // pre-activation is recomputed from the saved parents (a float add
        // — bit-identical to the forward's), so only alpha and the mask
        // were kept on the tape.
        std::vector<double> seg_dot(static_cast<size_t>(num_nodes), 0.0);
        for (int64_t i = 0; i < e; ++i) {
          seg_dot[static_cast<size_t>(dst[static_cast<size_t>(i)])] +=
              static_cast<double>(pa[i]) * d_alpha[static_cast<size_t>(i)];
        }
        float* slg = need_sl ? n->parents[1]->EnsureGrad()->data() : nullptr;
        float* srg = need_sr ? n->parents[2]->EnsureGrad()->data() : nullptr;
        for (int64_t i = 0; i < e; ++i) {
          const size_t si = static_cast<size_t>(src[static_cast<size_t>(i)]);
          const size_t di = static_cast<size_t>(dst[static_cast<size_t>(i)]);
          const float de = static_cast<float>(
              pa[i] * (d_alpha[static_cast<size_t>(i)] - seg_dot[di]));
          const float pre = psl[si] + psr[di];
          const float dpre = de * (pre > 0.0f ? 1.0f : negative_slope);
          if (need_sl) slg[si] += dpre;
          if (need_sr) srg[di] += dpre;
        }
      });
}

Variable CrossEntropy(const Variable& logits, const std::vector<int64_t>& index,
                      const std::vector<int64_t>& labels) {
  // Fused kernel: bitwise the LogSoftmaxRows -> GatherRows -> NllLoss chain
  // without materialising the (m, c) log-probability matrix or touching
  // unselected rows in the backward pass.
  return LogSoftmaxNll(logits, index, labels);
}

}  // namespace ops
}  // namespace tensor
}  // namespace graphrare
