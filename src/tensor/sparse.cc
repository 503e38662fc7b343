#include "tensor/sparse.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/parallel.h"

namespace graphrare {
namespace tensor {

namespace {

// Same generic vector idiom as the GEMM micro-kernel in tensor.cc: lanes
// are independent output features, loads/stores go through memcpy into
// locals so vector values never cross a function boundary by value (no
// -Wpsabi on non-AVX builds), and the project-wide -ffp-contract=off keeps
// mul+add unfused, matching the scalar loop bit for bit.
typedef float V8f __attribute__((vector_size(32)));

/// *acc += v * x[0..8).
inline void Axpy8(V8f* acc, float v, const float* x) {
  V8f xv;
  std::memcpy(&xv, x, sizeof(xv));
  *acc += v * xv;
}

inline void StoreV8(float* p, const V8f& v) { std::memcpy(p, &v, sizeof(v)); }

// The panel kernels below compute one CSR row's contribution to a
// contiguous block of output features entirely in registers: a single walk
// over the row's nonzeros, where every vals[p] / cols[p] load is shared by
// all 8-wide panels in the block, and y sees exactly one store per element
// instead of a load+store per nonzero. Per-(row, feature) sums still run
// in ascending-p order from zero, so the result is bitwise identical to
// the scalar reference loop regardless of which kernel handles which
// feature block — and regardless of thread count, since rows own their
// outputs exclusively.

// The gathers of x rows are the latency bottleneck at scale (the feature
// matrix outgrows L2), so the wide kernel prefetches the x row several
// nonzeros ahead. Prefetching is invisible to the arithmetic: determinism
// is untouched.
constexpr int64_t kPrefetchDist = 16;

inline void PrefetchRow(const float* xr) {
  __builtin_prefetch(xr, 0, 3);
  __builtin_prefetch(xr + 16, 0, 3);
  __builtin_prefetch(xr + 32, 0, 3);
  __builtin_prefetch(xr + 48, 0, 3);
}

/// y[0..64) = row · x[., 0..64): eight panels, full register residency.
/// `pmax` bounds the prefetch lookahead (the caller's chunk end, so the
/// prefetch stream runs seamlessly across row boundaries).
inline void SpmmRow64(const int64_t* cols, const float* vals, int64_t begin,
                      int64_t end, int64_t pmax, const float* px, int64_t f,
                      float* dst) {
  V8f a0 = {0, 0, 0, 0, 0, 0, 0, 0};
  V8f a1 = a0, a2 = a0, a3 = a0, a4 = a0, a5 = a0, a6 = a0, a7 = a0;
  for (int64_t p = begin; p < end; ++p) {
    if (p + kPrefetchDist < pmax) PrefetchRow(px + cols[p + kPrefetchDist] * f);
    const float v = vals[p];
    const float* xr = px + cols[p] * f;
    Axpy8(&a0, v, xr);
    Axpy8(&a1, v, xr + 8);
    Axpy8(&a2, v, xr + 16);
    Axpy8(&a3, v, xr + 24);
    Axpy8(&a4, v, xr + 32);
    Axpy8(&a5, v, xr + 40);
    Axpy8(&a6, v, xr + 48);
    Axpy8(&a7, v, xr + 56);
  }
  StoreV8(dst, a0);
  StoreV8(dst + 8, a1);
  StoreV8(dst + 16, a2);
  StoreV8(dst + 24, a3);
  StoreV8(dst + 32, a4);
  StoreV8(dst + 40, a5);
  StoreV8(dst + 48, a6);
  StoreV8(dst + 56, a7);
}

/// y[0..32) = row · x[., 0..32): four panels.
inline void SpmmRow32(const int64_t* cols, const float* vals, int64_t begin,
                      int64_t end, const float* px, int64_t f, float* dst) {
  V8f a0 = {0, 0, 0, 0, 0, 0, 0, 0};
  V8f a1 = a0, a2 = a0, a3 = a0;
  for (int64_t p = begin; p < end; ++p) {
    const float v = vals[p];
    const float* xr = px + cols[p] * f;
    Axpy8(&a0, v, xr);
    Axpy8(&a1, v, xr + 8);
    Axpy8(&a2, v, xr + 16);
    Axpy8(&a3, v, xr + 24);
  }
  StoreV8(dst, a0);
  StoreV8(dst + 8, a1);
  StoreV8(dst + 16, a2);
  StoreV8(dst + 24, a3);
}

/// y[0..8) = row · x[., 0..8): one panel.
inline void SpmmRow8(const int64_t* cols, const float* vals, int64_t begin,
                     int64_t end, const float* px, int64_t f, float* dst) {
  V8f a0 = {0, 0, 0, 0, 0, 0, 0, 0};
  for (int64_t p = begin; p < end; ++p) {
    Axpy8(&a0, vals[p], px + cols[p] * f);
  }
  StoreV8(dst, a0);
}

/// y[0..W) = row · x[., 0..W) for the f % 8 tail (the whole row when
/// f < 8), W in 1..7: one walk over the row's nonzeros with W scalar
/// accumulators, each an ascending-p sum from zero like the panels' lanes.
template <int W>
inline void SpmmRowNarrow(const int64_t* cols, const float* vals,
                          int64_t begin, int64_t end, const float* px,
                          int64_t f, float* dst) {
  float acc[W] = {};
  for (int64_t p = begin; p < end; ++p) {
    const float v = vals[p];
    const float* xr = px + cols[p] * f;
    for (int c = 0; c < W; ++c) acc[c] += v * xr[c];
  }
  for (int c = 0; c < W; ++c) dst[c] = acc[c];
}

/// Writes yrow[0..f) = nonzeros [begin, end) of one row · x, widest slabs
/// first: for the common f == 64 the whole row runs in eight register
/// panels and vals/cols are walked exactly once. Every output element is
/// stored (the output tensor may start uninitialised).
inline void SpmmRowInto(const int64_t* cols, const float* vals, int64_t begin,
                        int64_t end, int64_t pmax, const float* px, int64_t f,
                        float* yrow) {
  int64_t j = 0;
  for (; j + 64 <= f; j += 64) {
    SpmmRow64(cols, vals, begin, end, pmax, px + j, f, yrow + j);
  }
  if (j + 32 <= f) {
    SpmmRow32(cols, vals, begin, end, px + j, f, yrow + j);
    j += 32;
  }
  for (; j + 8 <= f; j += 8) {
    SpmmRow8(cols, vals, begin, end, px + j, f, yrow + j);
  }
  const float* xt = px + j;
  float* yt = yrow + j;
  switch (f - j) {
    case 1: SpmmRowNarrow<1>(cols, vals, begin, end, xt, f, yt); break;
    case 2: SpmmRowNarrow<2>(cols, vals, begin, end, xt, f, yt); break;
    case 3: SpmmRowNarrow<3>(cols, vals, begin, end, xt, f, yt); break;
    case 4: SpmmRowNarrow<4>(cols, vals, begin, end, xt, f, yt); break;
    case 5: SpmmRowNarrow<5>(cols, vals, begin, end, xt, f, yt); break;
    case 6: SpmmRowNarrow<6>(cols, vals, begin, end, xt, f, yt); break;
    case 7: SpmmRowNarrow<7>(cols, vals, begin, end, xt, f, yt); break;
    default: break;  // f % 8 == 0: no tail
  }
}

}  // namespace

CsrMatrix CsrMatrix::FromCoo(int64_t rows, int64_t cols,
                             std::vector<CooEntry> entries) {
  GR_CHECK_GE(rows, 0);
  GR_CHECK_GE(cols, 0);
  for (const auto& e : entries) {
    GR_CHECK(e.row >= 0 && e.row < rows)
        << "COO row " << e.row << " out of range [0," << rows << ")";
    GR_CHECK(e.col >= 0 && e.col < cols)
        << "COO col " << e.col << " out of range [0," << cols << ")";
  }
  std::sort(entries.begin(), entries.end(),
            [](const CooEntry& a, const CooEntry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  m.col_idx_.reserve(entries.size());
  m.values_.reserve(entries.size());

  for (size_t i = 0; i < entries.size();) {
    size_t j = i;
    float sum = 0.0f;
    while (j < entries.size() && entries[j].row == entries[i].row &&
           entries[j].col == entries[i].col) {
      sum += entries[j].value;
      ++j;
    }
    m.col_idx_.push_back(entries[i].col);
    m.values_.push_back(sum);
    m.row_ptr_[static_cast<size_t>(entries[i].row) + 1]++;
    i = j;
  }
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    m.row_ptr_[r + 1] += m.row_ptr_[r];
  }
  return m;
}

Tensor CsrMatrix::SpMM(const Tensor& x) const {
  GR_CHECK_EQ(cols_, x.rows());
  const int64_t f = x.cols();
  // Every element of y is written exactly once below (SpmmRowInto stores
  // the full row; empty rows are memset), so the multi-megabyte zero fill
  // of a default-constructed Tensor would be pure overwrite traffic.
  Tensor y = Tensor::Uninitialized(rows_, f);
  const float* px = x.data();
  float* py = y.data();
  const int64_t* cols = col_idx_.data();
  const float* vals = values_.data();
  // Each output row accumulates its own entries in CSR order, so dynamic
  // chunking (which balances skewed row degrees) cannot change the result.
  // grain == rows_ keeps small products serial.
  const int64_t grain = nnz() * f > (1 << 18) ? 64 : rows_;
  ParallelForDynamic(rows_, grain, [&](int64_t r0, int64_t r1) {
    const int64_t pmax = row_ptr_[static_cast<size_t>(r1)];
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t begin = row_ptr_[static_cast<size_t>(r)];
      const int64_t end = row_ptr_[static_cast<size_t>(r) + 1];
      if (begin == end) {
        std::memset(py + r * f, 0, static_cast<size_t>(f) * sizeof(float));
        continue;
      }
      SpmmRowInto(cols, vals, begin, end, pmax, px, f, py + r * f);
    }
  });
  return y;
}

std::shared_ptr<const CsrMatrix> CsrMatrix::Transposed() const {
  // call_once: two threads hitting the SpMM backward on a shared adjacency
  // at the same time must not race on the cache pointer (one build wins,
  // both see the same shared matrix afterwards).
  std::call_once(transpose_slot_->once, [this] {
    // Counting-sort transpose, O(nnz): walking the source rows in ascending
    // order appends each output row's entries in ascending source-row
    // order, which is exactly the sorted CSR invariant — no COO round trip
    // needed. (SpMM backward runs this once per adjacency, then hits the
    // cache.)
    auto t = std::make_shared<CsrMatrix>();
    t->rows_ = cols_;
    t->cols_ = rows_;
    t->row_ptr_.assign(static_cast<size_t>(cols_) + 1, 0);
    for (const int64_t c : col_idx_) {
      ++t->row_ptr_[static_cast<size_t>(c) + 1];
    }
    for (size_t r = 0; r < static_cast<size_t>(cols_); ++r) {
      t->row_ptr_[r + 1] += t->row_ptr_[r];
    }
    t->col_idx_.resize(col_idx_.size());
    t->values_.resize(values_.size());
    std::vector<int64_t> next(t->row_ptr_.begin(), t->row_ptr_.end() - 1);
    for (int64_t r = 0; r < rows_; ++r) {
      for (int64_t p = row_ptr_[static_cast<size_t>(r)];
           p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
        const int64_t c = col_idx_[static_cast<size_t>(p)];
        const int64_t slot = next[static_cast<size_t>(c)]++;
        t->col_idx_[static_cast<size_t>(slot)] = r;
        t->values_[static_cast<size_t>(slot)] =
            values_[static_cast<size_t>(p)];
      }
    }
    transpose_slot_->value = std::move(t);
  });
  return transpose_slot_->value;
}

CsrMatrix CsrMatrix::Multiply(const CsrMatrix& other) const {
  GR_CHECK_EQ(cols_, other.rows_);
  // Gustavson's algorithm with a dense accumulator per row. Sorting the
  // touched-column list gives each output row in CSR order directly, so
  // the rows are emitted as they finish — no COO materialisation and no
  // global re-sort through FromCoo. Accumulation order per (r, c) is the
  // q-traversal order, identical to the old COO path, so values match it
  // bit for bit.
  CsrMatrix m;
  m.rows_ = rows_;
  m.cols_ = other.cols_;
  m.row_ptr_.assign(static_cast<size_t>(rows_) + 1, 0);
  std::vector<float> acc(static_cast<size_t>(other.cols_), 0.0f);
  std::vector<int64_t> touched;
  for (int64_t r = 0; r < rows_; ++r) {
    touched.clear();
    for (int64_t p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      const int64_t k = col_idx_[static_cast<size_t>(p)];
      const float va = values_[static_cast<size_t>(p)];
      for (int64_t q = other.row_ptr_[static_cast<size_t>(k)];
           q < other.row_ptr_[static_cast<size_t>(k) + 1]; ++q) {
        const int64_t c = other.col_idx_[static_cast<size_t>(q)];
        if (acc[static_cast<size_t>(c)] == 0.0f) touched.push_back(c);
        acc[static_cast<size_t>(c)] +=
            va * other.values_[static_cast<size_t>(q)];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (int64_t c : touched) {
      // An exact zero sum is indistinguishable from "untouched"; such
      // cancellations simply drop the entry, which is fine for adjacency
      // use.
      if (acc[static_cast<size_t>(c)] != 0.0f) {
        m.col_idx_.push_back(c);
        m.values_.push_back(acc[static_cast<size_t>(c)]);
        acc[static_cast<size_t>(c)] = 0.0f;
      }
    }
    m.row_ptr_[static_cast<size_t>(r) + 1] =
        static_cast<int64_t>(m.col_idx_.size());
  }
  return m;
}

CsrMatrix CsrMatrix::SelectRows(const std::vector<int64_t>& rows) const {
  // Direct CSR assembly (not FromCoo): the source rows are already sorted,
  // so slicing is a pure copy and keeps the per-row entry order bitwise
  // identical to the source — the mini-batch equivalence guarantee relies
  // on this.
  CsrMatrix m;
  m.rows_ = static_cast<int64_t>(rows.size());
  m.cols_ = cols_;
  m.row_ptr_.assign(rows.size() + 1, 0);
  size_t total = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t r = rows[i];
    GR_CHECK(r >= 0 && r < rows_) << "SelectRows: row " << r
                                  << " out of range [0," << rows_ << ")";
    total += static_cast<size_t>(row_ptr_[static_cast<size_t>(r) + 1] -
                                 row_ptr_[static_cast<size_t>(r)]);
    m.row_ptr_[i + 1] = static_cast<int64_t>(total);
  }
  m.col_idx_.reserve(total);
  m.values_.reserve(total);
  for (const int64_t r : rows) {
    const auto begin = static_cast<size_t>(row_ptr_[static_cast<size_t>(r)]);
    const auto end = static_cast<size_t>(row_ptr_[static_cast<size_t>(r) + 1]);
    m.col_idx_.insert(m.col_idx_.end(), col_idx_.begin() + begin,
                      col_idx_.begin() + end);
    m.values_.insert(m.values_.end(), values_.begin() + begin,
                     values_.begin() + end);
  }
  return m;
}

CsrMatrix CsrMatrix::Permuted(const std::vector<int64_t>& perm,
                              bool permute_rows, bool permute_cols) const {
  GR_CHECK(permute_rows || permute_cols);
  std::vector<int64_t> inv;
  if (permute_rows) {
    GR_CHECK_EQ(static_cast<int64_t>(perm.size()), rows_);
    inv.assign(static_cast<size_t>(rows_), -1);
    for (int64_t i = 0; i < rows_; ++i) {
      const int64_t q = perm[static_cast<size_t>(i)];
      GR_CHECK(q >= 0 && q < rows_) << "Permuted: index " << q
                                    << " out of range [0," << rows_ << ")";
      GR_CHECK_EQ(inv[static_cast<size_t>(q)], -1)
          << "Permuted: perm is not a permutation (duplicate " << q << ")";
      inv[static_cast<size_t>(q)] = i;
    }
  }
  if (permute_cols) {
    GR_CHECK_EQ(static_cast<int64_t>(perm.size()), cols_);
  }
  CsrMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.row_ptr_.reserve(static_cast<size_t>(rows_) + 1);
  m.row_ptr_.push_back(0);
  m.col_idx_.reserve(col_idx_.size());
  m.values_.reserve(values_.size());
  std::vector<std::pair<int64_t, float>> entries;
  for (int64_t nr = 0; nr < rows_; ++nr) {
    const int64_t r = permute_rows ? inv[static_cast<size_t>(nr)] : nr;
    entries.clear();
    for (int64_t p = row_ptr_[static_cast<size_t>(r)];
         p < row_ptr_[static_cast<size_t>(r) + 1]; ++p) {
      int64_t c = col_idx_[static_cast<size_t>(p)];
      if (permute_cols) {
        c = perm[static_cast<size_t>(c)];
        GR_CHECK(c >= 0 && c < cols_) << "Permuted: index " << c
                                      << " out of range [0," << cols_ << ")";
      }
      entries.emplace_back(c, values_[static_cast<size_t>(p)]);
    }
    // Columns are unique within a row, so the sort (and hence the output)
    // is unambiguous; values travel untouched.
    std::sort(entries.begin(), entries.end());
    for (const auto& e : entries) {
      m.col_idx_.push_back(e.first);
      m.values_.push_back(e.second);
    }
    m.row_ptr_.push_back(static_cast<int64_t>(m.col_idx_.size()));
  }
  return m;
}

}  // namespace tensor
}  // namespace graphrare
