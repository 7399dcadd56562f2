#ifndef COLSCOPE_LINALG_MATRIX_H_
#define COLSCOPE_LINALG_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"

namespace colscope::linalg {

/// A vector of doubles; signatures and rows are plain Vectors.
using Vector = std::vector<double>;

/// Matrix backing storage: a contiguous row-major buffer whose first
/// element sits on a cache-line boundary, so the SIMD span kernels read
/// rows without the buffer start ever straddling a line. Interoperates
/// with Vector via iterators/spans (the allocator only changes where
/// the bytes live, not what they are).
using AlignedBuffer = std::vector<double, AlignedAllocator<double, 64>>;

/// Dense row-major matrix of doubles. Rows are data points (signatures),
/// columns are dimensions — the orientation every algorithm in this
/// library uses. Copyable and movable; sized at construction.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    COLSCOPE_DCHECK(data_.empty() ||
                    reinterpret_cast<std::uintptr_t>(data_.data()) % 64 == 0);
  }

  /// Builds a matrix whose rows are the given equally-sized vectors.
  static Matrix FromRows(const std::vector<Vector>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(size_t r, size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row `r` (contiguous `cols()` doubles).
  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  /// Zero-copy view of row `r` — the hot-loop alternative to Row(),
  /// which copies. Valid until the matrix is resized or destroyed.
  std::span<const double> RowSpan(size_t r) const {
    COLSCOPE_CHECK(r < rows_);
    return {RowPtr(r), cols_};
  }

  /// Copies row `r` out into a Vector.
  Vector Row(size_t r) const;

  /// Overwrites row `r` with `v` (sizes must match).
  void SetRow(size_t r, const Vector& v);

  /// Transposed copy (cache-blocked).
  Matrix Transposed() const;

  /// this (m x k) * other (k x n) -> (m x n). Every output cell is one
  /// dispatched span-kernel dot (see linalg/simd/kernels.h), so the
  /// result is bit-identical across SIMD ISAs, with or without
  /// COLSCOPE_FORCE_SCALAR, and at any thread count — and bit-identical to MultiplyTransposedB of
  /// the transposed operand, which it is implemented as.
  Matrix Multiply(const Matrix& other) const;

  /// this (m x k) * other^T for other (n x k) -> (m x n): row-by-row dot
  /// products through the dispatched span kernels, so callers never
  /// materialize the transpose. Bit-identical to
  /// Multiply(other.Transposed()).
  Matrix MultiplyTransposedB(const Matrix& other) const;

  /// this (m x k) * v (k) -> (m).
  Vector MultiplyVector(const Vector& v) const;

  /// Raw storage (row-major, 64-byte-aligned base), for tight loops.
  const AlignedBuffer& data() const { return data_; }
  AlignedBuffer& data() { return data_; }

 private:
  size_t rows_;
  size_t cols_;
  AlignedBuffer data_;
};

/// Copies the listed rows of `m`, in list order, into a new
/// (rows.size() x m.cols()) matrix. Rows may repeat and come in any
/// order; every id must be < m.rows().
Matrix GatherRows(const Matrix& m, std::span<const size_t> rows);

}  // namespace colscope::linalg

#endif  // COLSCOPE_LINALG_MATRIX_H_
