// Copyright 2026 The GraphRARE Authors.
//
// Dense row-major float32 matrix. The whole library standardises on 2-D
// tensors: vectors are (n, 1) columns and scalars are (1, 1). This keeps
// every kernel and every backward pass unambiguous about shapes.

#ifndef GRAPHRARE_TENSOR_TENSOR_H_
#define GRAPHRARE_TENSOR_TENSOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace graphrare {
namespace tensor {

namespace internal {
// Buffer plumbing for the tensor pool (implemented in tensor.cc). Buffers
// returned by AcquireZeroed are size-n and zero-filled; AcquireRaw buffers
// are size-n with unspecified contents (callers overwrite every element).
std::vector<float> PoolAcquireZeroed(size_t n);
std::vector<float> PoolAcquireRaw(size_t n);
std::vector<float> PoolAcquireCopy(const std::vector<float>& src);
void PoolRelease(std::vector<float> buf);
}  // namespace internal

/// Thread-safe free-list pool behind every Tensor allocation. Forward +
/// backward passes create and drop one Tensor per tape op; recycling the
/// float buffers keeps the allocator out of the training/serving hot path
/// (large buffers would otherwise round-trip through mmap on most mallocs).
///
/// The pool is compiled out under ASan/UBSan builds (GRAPHRARE_SANITIZE)
/// so the sanitizers see every logical allocation and use-after-free —
/// Enabled() reports false there and every Acquire hits the heap.
class TensorPool {
 public:
  struct Stats {
    uint64_t hits = 0;      // acquires served from the free list
    uint64_t misses = 0;    // acquires that had to allocate
    uint64_t returns = 0;   // buffers accepted back into the pool
    uint64_t drops = 0;     // buffers freed instead (caps)
    uint64_t cached_bytes = 0;  // bytes currently parked in the pool
  };

  /// False when pooling is compiled out (sanitizer builds).
  static bool Enabled();
  static Stats GetStats();
};

/// Dense (rows x cols) float32 matrix with value semantics. Buffers are
/// recycled through TensorPool; see the class comment above.
class Tensor {
 public:
  /// Empty 0x0 tensor.
  Tensor() : rows_(0), cols_(0) {}

  /// Zero-filled (rows x cols).
  Tensor(int64_t rows, int64_t cols) : rows_(rows), cols_(cols) {
    GR_CHECK_GE(rows, 0);
    GR_CHECK_GE(cols, 0);
    data_ = internal::PoolAcquireZeroed(static_cast<size_t>(rows * cols));
  }

  ~Tensor() { internal::PoolRelease(std::move(data_)); }

  Tensor(const Tensor& other)
      : rows_(other.rows_),
        cols_(other.cols_),
        data_(internal::PoolAcquireCopy(other.data_)) {}

  Tensor(Tensor&& other) noexcept
      : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_.clear();
  }

  Tensor& operator=(const Tensor& other) {
    if (this == &other) return *this;
    rows_ = other.rows_;
    cols_ = other.cols_;
    if (data_.capacity() >= other.data_.size()) {
      data_.assign(other.data_.begin(), other.data_.end());
    } else {
      internal::PoolRelease(std::move(data_));
      data_ = internal::PoolAcquireCopy(other.data_);
    }
    return *this;
  }

  Tensor& operator=(Tensor&& other) noexcept {
    if (this == &other) return *this;
    internal::PoolRelease(std::move(data_));
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = std::move(other.data_);
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_.clear();
    return *this;
  }

  // -- Factories --------------------------------------------------------

  static Tensor Zeros(int64_t rows, int64_t cols) {
    return Tensor(rows, cols);
  }
  /// (rows x cols) with unspecified contents — strictly for kernels that
  /// provably store every element before the tensor escapes (the sparse /
  /// blocked kernels, whose outputs are multi-megabyte and would otherwise
  /// pay a redundant zero fill per call).
  static Tensor Uninitialized(int64_t rows, int64_t cols) {
    GR_CHECK_GE(rows, 0);
    GR_CHECK_GE(cols, 0);
    Tensor t;
    t.rows_ = rows;
    t.cols_ = cols;
    t.data_ = internal::PoolAcquireRaw(static_cast<size_t>(rows * cols));
    return t;
  }
  static Tensor Full(int64_t rows, int64_t cols, float v) {
    Tensor t(rows, cols);
    t.Fill(v);
    return t;
  }
  /// 1x1 scalar tensor.
  static Tensor Scalar(float v) { return Full(1, 1, v); }
  /// Identity matrix.
  /// Takes ownership of `data` (must have rows*cols elements).
  static Tensor FromData(int64_t rows, int64_t cols, std::vector<float> data) {
    GR_CHECK_EQ(static_cast<int64_t>(data.size()), rows * cols);
    Tensor t;
    t.rows_ = rows;
    t.cols_ = cols;
    t.data_ = std::move(data);
    return t;
  }
  /// Column vector (n x 1) from data.
  /// I.i.d. N(0, stddev^2) entries.
  static Tensor Randn(int64_t rows, int64_t cols, Rng* rng,
                      float stddev = 1.0f);
  /// I.i.d. U[lo, hi) entries.
  static Tensor Rand(int64_t rows, int64_t cols, Rng* rng, float lo = 0.0f,
                     float hi = 1.0f);
  /// Glorot/Xavier uniform initialisation for a (fan_in x fan_out) weight.
  static Tensor GlorotUniform(int64_t fan_in, int64_t fan_out, Rng* rng);

  // -- Shape ------------------------------------------------------------

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t numel() const { return rows_ * cols_; }
  bool is_scalar() const { return rows_ == 1 && cols_ == 1; }
  bool SameShape(const Tensor& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  // -- Element access ---------------------------------------------------

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(int64_t r, int64_t c) {
    GR_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  float at(int64_t r, int64_t c) const {
    GR_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  float& operator[](int64_t i) {
    GR_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    GR_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  /// Value of a 1x1 tensor.
  float scalar() const {
    GR_CHECK(is_scalar()) << "scalar() on " << rows_ << "x" << cols_;
    return data_[0];
  }

  const float* row(int64_t r) const { return data() + r * cols_; }
  float* row(int64_t r) { return data() + r * cols_; }

  // -- In-place value operations (no autograd; used by kernels/optim) ----

  void Fill(float v);
  /// this += other (same shape).
  void AddInPlace(const Tensor& other);
  /// this += alpha * other (same shape).
  void AxpyInPlace(float alpha, const Tensor& other);
  /// this *= alpha.
  void ScaleInPlace(float alpha);
  /// this = elementwise this * other.
  void MulInPlace(const Tensor& other);

  // -- Value-level helpers ------------------------------------------------

  /// Compensated sum of all elements (Neumaier's variant of Kahan
  /// summation on a double accumulator), so large-matrix sums lose no
  /// low-order bits to the accumulation itself — including under heavy
  /// cancellation. Mean() divides the same compensated double sum.
  float Sum() const;
  float Mean() const;
  /// Index of the max element in row r (argmax over columns).
  int64_t ArgMaxRow(int64_t r) const;

 private:
  /// Kahan-compensated double sum (shared by Sum / Mean).
  double SumDouble() const;

  int64_t rows_;
  int64_t cols_;
  std::vector<float> data_;
};

// -- Dense kernels (value level, no autograd) ----------------------------
//
// MatMul / MatMulTransB are cache-blocked and register-tiled, but every
// C[i,j] is still accumulated over the full k extent in ascending order, so
// their results are exactly the plain-triple-loop results and are invariant
// to thread count (threads own disjoint row blocks of C).
//
// MatMulTransA reduces over k (the large dimension in every dense backward
// pass), so its deterministic contract is block-structured instead: k is
// split into fixed blocks of kTransAKBlock rows, each block's partial
// product accumulates in ascending-k order, and the partials are summed in
// ascending block order — the same bits for any OMP_NUM_THREADS and for
// OpenMP-off builds. For k <= kTransAKBlock this degenerates to the plain
// triple-loop result.

/// Fixed k-reduction block for MatMulTransA (part of its numeric contract;
/// tests reference it to build the bit-exact oracle).
inline constexpr int64_t kTransAKBlock = 256;

/// C = A * B. Shapes (m,k) x (k,n) -> (m,n).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// C = A^T * B. Shapes (k,m) x (k,n) -> (m,n).
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
/// C = A * B^T. Shapes (m,k) x (n,k) -> (m,n).
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
/// Column sums -> (1, n). Deterministic fixed-block parallel reduction over
/// row blocks of kColSumRowBlock.
inline constexpr int64_t kColSumRowBlock = 1024;
Tensor ColSum(const Tensor& a);

}  // namespace tensor
}  // namespace graphrare

#endif  // GRAPHRARE_TENSOR_TENSOR_H_
