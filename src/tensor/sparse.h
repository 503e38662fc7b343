// Copyright 2026 The GraphRARE Authors.
//
// Compressed sparse row matrix for graph adjacency operators. Used by the
// GNN layers (SpMM is the message-passing hot loop) and by GCN
// normalisation. Values are float so normalised adjacencies fit directly.
//
// Thread-safety: a CsrMatrix is immutable after construction, and the lazy
// Transposed() cache is initialised under std::call_once, so any number of
// threads may share one matrix for reads (SpMM forward + backward on a
// shared adjacency included). The mutating helpers (assignment, moves) are
// not synchronised — don't reassign a matrix other threads are reading.

#ifndef GRAPHRARE_TENSOR_SPARSE_H_
#define GRAPHRARE_TENSOR_SPARSE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "tensor/tensor.h"

namespace graphrare {
namespace tensor {

/// A COO triple used when assembling sparse matrices.
struct CooEntry {
  int64_t row;
  int64_t col;
  float value;
};

/// Immutable CSR matrix. Rows are sorted by construction; duplicate COO
/// entries are summed.
class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) {}

  // Copies and moves transfer the matrix but not the transpose cache: a
  // fired std::once_flag cannot be re-armed, so the destination gets a
  // fresh slot and simply recomputes the transpose on first use.
  CsrMatrix(const CsrMatrix& other)
      : rows_(other.rows_),
        cols_(other.cols_),
        row_ptr_(other.row_ptr_),
        col_idx_(other.col_idx_),
        values_(other.values_) {}
  CsrMatrix& operator=(const CsrMatrix& other) {
    if (this != &other) *this = CsrMatrix(other);
    return *this;
  }
  CsrMatrix(CsrMatrix&& other) noexcept
      : rows_(other.rows_),
        cols_(other.cols_),
        row_ptr_(std::move(other.row_ptr_)),
        col_idx_(std::move(other.col_idx_)),
        values_(std::move(other.values_)) {
    other.rows_ = 0;
    other.cols_ = 0;
  }
  CsrMatrix& operator=(CsrMatrix&& other) noexcept {
    if (this != &other) {
      rows_ = other.rows_;
      cols_ = other.cols_;
      row_ptr_ = std::move(other.row_ptr_);
      col_idx_ = std::move(other.col_idx_);
      values_ = std::move(other.values_);
      transpose_slot_ = std::make_unique<TransposeSlot>();
      other.rows_ = 0;
      other.cols_ = 0;
    }
    return *this;
  }

  /// Builds from COO entries (any order; duplicates summed).
  static CsrMatrix FromCoo(int64_t rows, int64_t cols,
                           std::vector<CooEntry> entries);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int64_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// Y = A * X (dense). X is (cols x f) -> Y (rows x f). The feature
  /// dimension runs through 8-wide vector panels with the accumulators held
  /// in registers across each row's nonzeros; per-(row, feature)
  /// accumulation stays in ascending CSR order, so the result is bitwise
  /// identical to the scalar loop under any thread count.
  Tensor SpMM(const Tensor& x) const;

  /// Transposed copy. Cached: repeated calls return the same shared matrix
  /// (backward passes need A^T on every step). Thread-safe: concurrent
  /// first calls race only into a std::call_once.
  std::shared_ptr<const CsrMatrix> Transposed() const;

  /// Sparse-sparse product (this * other). Used for 2-hop adjacency in
  /// H2GCN. Result values are the path counts / weight sums.
  CsrMatrix Multiply(const CsrMatrix& other) const;

  /// Row-sliced copy: result row i is this matrix's row rows[i] (entries and
  /// in-row ordering preserved exactly). Rows may repeat and appear in any
  /// order. Used to build per-batch feature matrices for sampled subgraphs.
  CsrMatrix SelectRows(const std::vector<int64_t>& rows) const;

  /// Symmetric permutation copy: result(perm[r], perm[c]) = this(r, c).
  /// `perm` maps old index -> new index and must be a permutation of
  /// [0, n) for both dimensions it is applied to (rows when
  /// `permute_rows`, columns when `permute_cols`). Values are copied
  /// bit-exactly; only their positions move. Used by graph::ReorderCsr.
  CsrMatrix Permuted(const std::vector<int64_t>& perm, bool permute_rows,
                     bool permute_cols) const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<int64_t> row_ptr_;  // size rows_+1
  std::vector<int64_t> col_idx_;  // size nnz, sorted within each row
  std::vector<float> values_;    // size nnz

  // Lazy transpose cache. The std::call_once makes the initial build safe
  // when two threads hit the SpMM backward on a shared adjacency at once;
  // after the call_once returns, the shared_ptr is read-only. The slot
  // lives behind a unique_ptr because a fired once_flag cannot be re-armed:
  // assignment installs a fresh slot instead (see operator=).
  struct TransposeSlot {
    std::once_flag once;
    std::shared_ptr<const CsrMatrix> value;
  };
  mutable std::unique_ptr<TransposeSlot> transpose_slot_ =
      std::make_unique<TransposeSlot>();
};

}  // namespace tensor
}  // namespace graphrare

#endif  // GRAPHRARE_TENSOR_SPARSE_H_
