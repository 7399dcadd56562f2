#include "linalg/matrix.h"

#include <algorithm>
#include <cstdint>

#include "linalg/simd/kernels.h"

namespace colscope::linalg {

namespace {

/// Tile edge (in doubles) of the cache-blocked kernels (Transposed and
/// the j-blocking of the dot-per-cell multiply). A 64-row B window is
/// 64 * cols * 8 bytes — resident in L2 for signature-sized matrices —
/// while every inner loop streams with unit stride.
constexpr size_t kTile = 64;

}  // namespace

Matrix Matrix::FromRows(const std::vector<Vector>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    COLSCOPE_CHECK(rows[r].size() == m.cols());
    m.SetRow(r, rows[r]);
  }
  return m;
}

Vector Matrix::Row(size_t r) const {
  COLSCOPE_CHECK(r < rows_);
  return Vector(RowPtr(r), RowPtr(r) + cols_);
}

void Matrix::SetRow(size_t r, const Vector& v) {
  COLSCOPE_CHECK(r < rows_);
  COLSCOPE_CHECK(v.size() == cols_);
  std::copy(v.begin(), v.end(), RowPtr(r));
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  // Tiled so both the read rows and the written columns stay within a
  // cache-sized window; the naive loop strides rows_ * 8 bytes on every
  // write once cols_ outgrows the cache.
  for (size_t r0 = 0; r0 < rows_; r0 += kTile) {
    const size_t r1 = std::min(rows_, r0 + kTile);
    for (size_t c0 = 0; c0 < cols_; c0 += kTile) {
      const size_t c1 = std::min(cols_, c0 + kTile);
      for (size_t r = r0; r < r1; ++r) {
        const double* row = RowPtr(r);
        for (size_t c = c0; c < c1; ++c) t(c, r) = row[c];
      }
    }
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  COLSCOPE_CHECK(cols_ == other.rows());
  // The old 64-wide i-k-j tile kernel measured ~0.95x against the naive
  // loop, so it was retired: one blocked transpose turns the product
  // into row-by-row dots, which the dispatched kernels vectorize. Going
  // through MultiplyTransposedB also makes the two products exact
  // mirrors — bit-identical by construction, not by parallel-maintained
  // loop nests.
  return MultiplyTransposedB(other.Transposed());
}

Matrix Matrix::MultiplyTransposedB(const Matrix& other) const {
  COLSCOPE_CHECK(cols_ == other.cols());
  Matrix out(rows_, other.rows());
  const auto& kernels = simd::Active();
  // out(i, j) = <row i, other row j>: both operands stream with unit
  // stride, and a j tile keeps the touched B rows cache-resident across
  // consecutive A rows.
  for (size_t j0 = 0; j0 < other.rows(); j0 += kTile) {
    const size_t j1 = std::min(other.rows(), j0 + kTile);
    for (size_t i = 0; i < rows_; ++i) {
      const double* a_row = RowPtr(i);
      double* out_row = out.RowPtr(i);
      for (size_t j = j0; j < j1; ++j) {
        out_row[j] = kernels.dot(a_row, other.RowPtr(j), cols_);
      }
    }
  }
  return out;
}

Vector Matrix::MultiplyVector(const Vector& v) const {
  COLSCOPE_CHECK(v.size() == cols_);
  Vector out(rows_, 0.0);
  const auto& kernels = simd::Active();
  for (size_t i = 0; i < rows_; ++i) {
    out[i] = kernels.dot(RowPtr(i), v.data(), cols_);
  }
  return out;
}

Matrix GatherRows(const Matrix& m, std::span<const size_t> rows) {
  Matrix out(rows.size(), m.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    COLSCOPE_CHECK(rows[i] < m.rows());
    std::copy_n(m.RowPtr(rows[i]), m.cols(), out.RowPtr(i));
  }
  return out;
}

}  // namespace colscope::linalg
