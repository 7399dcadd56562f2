#include "embed/quantized_store.h"

#include <cmath>

#include "common/check.h"
#include "linalg/simd/kernels.h"

namespace colscope::embed {

namespace {

constexpr size_t kRowAlign = 64;

/// Quantizes `n` doubles into `out` and returns the scale. `out` must
/// hold at least `n` bytes; the caller zeroes any padding.
double QuantizeRow(const double* row, size_t n, int8_t* out) {
  double maxabs = 0.0;
  for (size_t c = 0; c < n; ++c) {
    const double a = std::fabs(row[c]);
    if (a > maxabs) maxabs = a;
  }
  if (maxabs == 0.0) {
    for (size_t c = 0; c < n; ++c) out[c] = 0;
    return 0.0;
  }
  const double scale = maxabs / 127.0;
  const double inv = 127.0 / maxabs;
  for (size_t c = 0; c < n; ++c) {
    // |row[c]| <= maxabs, so the rounded value stays within [-127, 127].
    out[c] = static_cast<int8_t>(std::lround(row[c] * inv));
  }
  return scale;
}

/// Plain sequential L1 norm. Build-time only, and deliberately not a
/// dispatched kernel: the same bits on every table keeps the error
/// bound identical with or without COLSCOPE_FORCE_SCALAR.
double L1Norm(const double* row, size_t n) {
  double sum = 0.0;
  for (size_t c = 0; c < n; ++c) sum += std::fabs(row[c]);
  return sum;
}

}  // namespace

QuantizedSignatureStore::QuantizedSignatureStore(
    const linalg::Matrix& signatures) {
  rows_ = signatures.rows();
  cols_ = signatures.cols();
  stride_ = (cols_ + kRowAlign - 1) / kRowAlign * kRowAlign;
  codes_.assign(rows_ * stride_, 0);
  scales_.resize(rows_);
  norm2_.resize(rows_);
  l1_.resize(rows_);
  const auto& kernels = linalg::simd::Active();
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = signatures.RowPtr(r);
    scales_[r] = QuantizeRow(row, cols_, codes_.data() + r * stride_);
    norm2_[r] = kernels.dot(row, row, cols_);
    l1_[r] = L1Norm(row, cols_);
  }
}

QuantizedQuery QuantizedSignatureStore::Quantize(
    std::span<const double> query) const {
  COLSCOPE_CHECK(query.size() == cols_);
  QuantizedQuery q;
  q.codes.assign(stride_, 0);
  q.scale = QuantizeRow(query.data(), cols_, q.codes.data());
  q.norm2 = linalg::simd::Active().dot(query.data(), query.data(), cols_);
  q.l1 = L1Norm(query.data(), cols_);
  return q;
}

double QuantizedSignatureStore::ApproxDot(size_t r, size_t s) const {
  COLSCOPE_CHECK(r < rows_ && s < rows_);
  // Padding is zero on both sides, so running the kernel over the full
  // stride is exact and keeps the SIMD body free of a tail loop.
  const int64_t d =
      linalg::simd::Active().dot_i8(RowCodes(r), RowCodes(s), stride_);
  return scales_[r] * scales_[s] * static_cast<double>(d);
}

double QuantizedSignatureStore::ApproxDot(size_t r,
                                          const QuantizedQuery& query) const {
  COLSCOPE_CHECK(r < rows_ && query.codes.size() == stride_);
  const int64_t d =
      linalg::simd::Active().dot_i8(RowCodes(r), query.codes.data(), stride_);
  return scales_[r] * query.scale * static_cast<double>(d);
}

double QuantizedSignatureStore::ApproxSquaredL2(
    size_t r, const QuantizedQuery& query) const {
  const double d2 = norm2_[r] + query.norm2 - 2.0 * ApproxDot(r, query);
  return d2 > 0.0 ? d2 : 0.0;
}

double QuantizedSignatureStore::DotErrorBound(size_t r, double query_scale,
                                              double query_l1) const {
  COLSCOPE_CHECK(r < rows_);
  // dot(a, b) - dot(a', b') = sum a[i]*e_b[i] + sum e_a[i]*b'[i] with
  // per-element dequantization error |e_x[i]| <= scale_x / 2. Each sum
  // is bounded by the max error times the *L1* norm of the other factor
  // (an L2 norm would be too small by up to sqrt(cols) — this bound
  // must hold, the prefilter's exactness rests on it), and
  // ||b'||_1 <= ||b||_1 + cols * scale_b / 2 removes the dequantized
  // query from the formula.
  const double half_r = 0.5 * scales_[r];
  const double half_q = 0.5 * query_scale;
  return half_q * l1_[r] + half_r * query_l1 +
         static_cast<double>(cols_) * half_r * half_q;
}

}  // namespace colscope::embed
