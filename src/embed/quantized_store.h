#ifndef COLSCOPE_EMBED_QUANTIZED_STORE_H_
#define COLSCOPE_EMBED_QUANTIZED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "linalg/matrix.h"

namespace colscope::embed {

/// Structure-of-arrays int8 view of a signature matrix, built once and
/// queried by the approximate prefilters (`--quantized`). Each row is
/// quantized independently with symmetric linear quantization:
///
///   scale_r = max_c |row[c]| / 127,   q[c] = round(row[c] / scale_r)
///
/// so dequantization error is at most scale_r / 2 per element. Rows are
/// stored contiguously at a 64-byte-aligned stride (cols rounded up),
/// which keeps every row start on a cache line and lets the int8 SIMD
/// kernels stream without peeling. Alongside each row the store keeps
/// its scale and its *exact* double-precision squared norm, so distance
/// reconstruction only approximates the cross term:
///
///   dot(a, b)  ~= scale_a * scale_b * dot_i8(qa, qb)
///   |a - b|^2  ~= norm2_a + norm2_b - 2 * dot(a, b)
///
/// A store never replaces exact scoring: callers rank candidates with
/// it, then rescore survivors with the double-precision kernels. The
/// int8 kernels are exact integer arithmetic, so quantized rankings are
/// bit-identical across scalar and SIMD tables.
/// A query vector quantized against a store's geometry: the int8 codes
/// (padded to the store's stride, padding zeroed), the scale, and the
/// exact norms the approximate kernels and the error bound take.
struct QuantizedQuery {
  std::vector<int8_t> codes;
  double scale = 0.0;
  double norm2 = 0.0;  ///< Exact squared L2 norm of the original query.
  double l1 = 0.0;     ///< Exact L1 norm of the original query.
};

class QuantizedSignatureStore {
 public:
  QuantizedSignatureStore() = default;

  /// Quantizes every row of `signatures`. Zero rows get scale 0 and an
  /// all-zero code (their approximate dot with anything is 0, matching
  /// the exact value).
  explicit QuantizedSignatureStore(const linalg::Matrix& signatures);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Padded row stride in elements (multiple of 64).
  size_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0; }

  /// Quantized code of row `r` (padding bytes beyond cols() are zero).
  const int8_t* RowCodes(size_t r) const { return codes_.data() + r * stride_; }
  double RowScale(size_t r) const { return scales_[r]; }
  /// Exact (double-precision) squared L2 norm of the original row.
  double RowNorm2(size_t r) const { return norm2_[r]; }
  /// Exact (double-precision) L1 norm of the original row — the norm
  /// the dequantization error bound is stated in (see DotErrorBound).
  double RowL1(size_t r) const { return l1_[r]; }

  /// Quantizes an external query vector (size cols()) exactly as a
  /// stored row is quantized: codes padded to stride(), the scale, and
  /// the query's exact squared L2 and L1 norms.
  QuantizedQuery Quantize(std::span<const double> query) const;

  /// Approximate dot product between stored rows `r` and `s`.
  double ApproxDot(size_t r, size_t s) const;

  /// Approximate dot between stored row `r` and a quantized query.
  double ApproxDot(size_t r, const QuantizedQuery& query) const;

  /// Approximate squared L2 distance via the exact norms and the
  /// approximate cross term.
  double ApproxSquaredL2(size_t r, const QuantizedQuery& query) const;

  /// Upper bound on |exact_dot - approx_dot| for stored row `r` against
  /// a query with the given scale and exact *L1* norm. Writing a' / b'
  /// for the dequantized vectors and e_x = x - x' (|e_x[i]| <= scale_x/2),
  ///   dot(a,b) - dot(a',b') = sum a[i]*e_b[i] + sum e_a[i]*b'[i],
  /// and a sum of elementwise products against a vector whose entries
  /// are bounded by scale/2 is bounded by scale/2 times the *L1* norm
  /// of the other factor (Hoelder with the max-norm — an L2 norm here
  /// would be too small by up to sqrt(cols)). With
  /// ||b'||_1 <= ||b||_1 + cols*scale_b/2 this gives
  ///   |err| <= scale_b/2 * ||a||_1 + scale_a/2 * ||b||_1
  ///            + cols/4 * scale_a * scale_b.
  /// Used by the token-blocking prefilter to keep its threshold margin
  /// conservative instead of guessed.
  double DotErrorBound(size_t r, double query_scale, double query_l1) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
  std::vector<int8_t, AlignedAllocator<int8_t, 64>> codes_;
  std::vector<double> scales_;
  std::vector<double> norm2_;
  std::vector<double> l1_;
};

}  // namespace colscope::embed

#endif  // COLSCOPE_EMBED_QUANTIZED_STORE_H_
