// AVX2 (+FMA for the opt-in fast path) span kernels. This translation
// unit is the only one compiled with -mavx2 -mfma; its functions are
// only ever reached after dispatch.cc's runtime cpuid check, so the
// binary still starts on plain x86-64.
//
// The double-precision kernels reproduce the canonical 16-lane
// reduction tree of kernels_scalar.cc exactly: four 4-lane vector
// accumulators (lanes 0-3, 4-7, 8-11, 12-15) giving four independent
// add chains — enough to clear vaddpd latency and run at the load-port
// ceiling — with multiply+add kept as separate rounded operations (no
// FMA contraction — that would change bits), tail handled by the same
// scalar code as the reference, and the fixed lane combine.
// dot_columns turns the layout around — one ymm per lane holding four
// output columns — and builds the same tree per column. Only dot_fast
// contracts into FMAs.

#include "linalg/simd/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace colscope::linalg::simd {

namespace {

/// The fixed combine of the 16 partial sums, as in the reference.
inline double CombineLanes(const double lanes[kLanes]) {
  double f[8];
  for (size_t j = 0; j < 8; ++j) f[j] = lanes[j] + lanes[j + 8];
  const double c0 = f[0] + f[4];
  const double c1 = f[1] + f[5];
  const double c2 = f[2] + f[6];
  const double c3 = f[3] + f[7];
  return (c0 + c2) + (c1 + c3);
}

/// Spills the four vector accumulators into the canonical lane array
/// (lanes 0-3 from `v0` through 12-15 from `v3`), folds the tail in
/// with the exact scalar code of the reference, and applies the fixed
/// combine.
inline double FinishTree(__m256d v0, __m256d v1, __m256d v2, __m256d v3,
                         const double acc_tail[], size_t rem) {
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, v0);
  _mm256_store_pd(lanes + 4, v1);
  _mm256_store_pd(lanes + 8, v2);
  _mm256_store_pd(lanes + 12, v3);
  for (size_t t = 0; t < rem; ++t) lanes[t] += acc_tail[t];
  return CombineLanes(lanes);
}

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d v0 = _mm256_setzero_pd();
  __m256d v1 = _mm256_setzero_pd();
  __m256d v2 = _mm256_setzero_pd();
  __m256d v3 = _mm256_setzero_pd();
  const size_t body = n - n % kLanes;
  for (size_t i = 0; i < body; i += kLanes) {
    v0 = _mm256_add_pd(
        v0, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    v1 = _mm256_add_pd(v1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4)));
    v2 = _mm256_add_pd(v2, _mm256_mul_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8)));
    v3 = _mm256_add_pd(v3, _mm256_mul_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12)));
  }
  double tail[kLanes] = {};
  const size_t rem = n - body;
  for (size_t t = 0; t < rem; ++t) tail[t] = a[body + t] * b[body + t];
  return FinishTree(v0, v1, v2, v3, tail, rem);
}

double SquaredL2Avx2(const double* a, const double* b, size_t n) {
  __m256d v0 = _mm256_setzero_pd();
  __m256d v1 = _mm256_setzero_pd();
  __m256d v2 = _mm256_setzero_pd();
  __m256d v3 = _mm256_setzero_pd();
  const size_t body = n - n % kLanes;
  for (size_t i = 0; i < body; i += kLanes) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    const __m256d d2 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 8), _mm256_loadu_pd(b + i + 8));
    const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(a + i + 12),
                                     _mm256_loadu_pd(b + i + 12));
    v0 = _mm256_add_pd(v0, _mm256_mul_pd(d0, d0));
    v1 = _mm256_add_pd(v1, _mm256_mul_pd(d1, d1));
    v2 = _mm256_add_pd(v2, _mm256_mul_pd(d2, d2));
    v3 = _mm256_add_pd(v3, _mm256_mul_pd(d3, d3));
  }
  double tail[kLanes] = {};
  const size_t rem = n - body;
  for (size_t t = 0; t < rem; ++t) {
    const double d = a[body + t] - b[body + t];
    tail[t] = d * d;
  }
  return FinishTree(v0, v1, v2, v3, tail, rem);
}

void CosineTermsAvx2(const double* a, const double* b, size_t n,
                     double* dot_ab, double* norm2_a, double* norm2_b) {
  // 12 accumulators + 4 live loads press on the 16 ymm registers; GCC
  // spills a little, but the one-pass structure (each element loaded
  // once for all three sums) still wins over three separate passes.
  __m256d ab0 = _mm256_setzero_pd(), ab1 = _mm256_setzero_pd();
  __m256d ab2 = _mm256_setzero_pd(), ab3 = _mm256_setzero_pd();
  __m256d aa0 = _mm256_setzero_pd(), aa1 = _mm256_setzero_pd();
  __m256d aa2 = _mm256_setzero_pd(), aa3 = _mm256_setzero_pd();
  __m256d bb0 = _mm256_setzero_pd(), bb1 = _mm256_setzero_pd();
  __m256d bb2 = _mm256_setzero_pd(), bb3 = _mm256_setzero_pd();
  const size_t body = n - n % kLanes;
  for (size_t i = 0; i < body; i += kLanes) {
    const __m256d x0 = _mm256_loadu_pd(a + i);
    const __m256d y0 = _mm256_loadu_pd(b + i);
    ab0 = _mm256_add_pd(ab0, _mm256_mul_pd(x0, y0));
    aa0 = _mm256_add_pd(aa0, _mm256_mul_pd(x0, x0));
    bb0 = _mm256_add_pd(bb0, _mm256_mul_pd(y0, y0));
    const __m256d x1 = _mm256_loadu_pd(a + i + 4);
    const __m256d y1 = _mm256_loadu_pd(b + i + 4);
    ab1 = _mm256_add_pd(ab1, _mm256_mul_pd(x1, y1));
    aa1 = _mm256_add_pd(aa1, _mm256_mul_pd(x1, x1));
    bb1 = _mm256_add_pd(bb1, _mm256_mul_pd(y1, y1));
    const __m256d x2 = _mm256_loadu_pd(a + i + 8);
    const __m256d y2 = _mm256_loadu_pd(b + i + 8);
    ab2 = _mm256_add_pd(ab2, _mm256_mul_pd(x2, y2));
    aa2 = _mm256_add_pd(aa2, _mm256_mul_pd(x2, x2));
    bb2 = _mm256_add_pd(bb2, _mm256_mul_pd(y2, y2));
    const __m256d x3 = _mm256_loadu_pd(a + i + 12);
    const __m256d y3 = _mm256_loadu_pd(b + i + 12);
    ab3 = _mm256_add_pd(ab3, _mm256_mul_pd(x3, y3));
    aa3 = _mm256_add_pd(aa3, _mm256_mul_pd(x3, x3));
    bb3 = _mm256_add_pd(bb3, _mm256_mul_pd(y3, y3));
  }
  double tail_ab[kLanes] = {};
  double tail_aa[kLanes] = {};
  double tail_bb[kLanes] = {};
  const size_t rem = n - body;
  for (size_t t = 0; t < rem; ++t) {
    const double x = a[body + t];
    const double y = b[body + t];
    tail_ab[t] = x * y;
    tail_aa[t] = x * x;
    tail_bb[t] = y * y;
  }
  *dot_ab = FinishTree(ab0, ab1, ab2, ab3, tail_ab, rem);
  *norm2_a = FinishTree(aa0, aa1, aa2, aa3, tail_aa, rem);
  *norm2_b = FinishTree(bb0, bb1, bb2, bb3, tail_bb, rem);
}

/// One canonical lane for 4·V adjacent columns: V ymm registers of
/// four columns each.
template <size_t V>
struct LaneBlock {
  __m256d v[V];
};

template <size_t V>
inline LaneBlock<V> Add(LaneBlock<V> x, const LaneBlock<V>& y) {
  for (size_t i = 0; i < V; ++i) x.v[i] = _mm256_add_pd(x.v[i], y.v[i]);
  return x;
}

/// Lane `j` of the canonical tree for the columns that start at `b`:
/// the terms t = j, j + 16, ... below k in increasing t, summed from
/// +0.0 — exactly what the reference's body iterations and then its
/// tail put into lane j. One broadcast of a[t] serves all V registers.
template <size_t V>
inline LaneBlock<V> ColumnLane(const double* a, const double* b, size_t k,
                               size_t d, size_t j) {
  LaneBlock<V> acc;
  for (size_t i = 0; i < V; ++i) acc.v[i] = _mm256_setzero_pd();
  for (size_t t = j; t < k; t += kLanes) {
    const __m256d x = _mm256_broadcast_sd(a + t);
    const double* row = b + t * d;
    for (size_t i = 0; i < V; ++i) {
      acc.v[i] = _mm256_add_pd(
          acc.v[i], _mm256_mul_pd(x, _mm256_loadu_pd(row + 4 * i)));
    }
  }
  return acc;
}

/// The whole tree for 4·V columns at once: the lanes are folded
/// lanewise by the fixed combine, so no lane is ever spilled.
template <size_t V>
inline void ColumnTrees(const double* a, const double* b, size_t k,
                        size_t d, double* out) {
  const auto lane = [&](size_t j) { return ColumnLane<V>(a, b, k, d, j); };
  // (l_j + l_{j+8}) + (l_{j+4} + l_{j+12}) = f_j + f_{j+4}.
  const auto fold = [&](size_t j) {
    return Add(Add(lane(j), lane(j + 8)), Add(lane(j + 4), lane(j + 12)));
  };
  const LaneBlock<V> sum =
      Add(Add(fold(0), fold(2)), Add(fold(1), fold(3)));
  for (size_t i = 0; i < V; ++i) _mm256_storeu_pd(out + 4 * i, sum.v[i]);
}

/// Four output columns per ymm register, sixteen per step so one
/// broadcast feeds four registers (eight registers per step spill and
/// run 5x slower); then groups of four, then the columns past the last
/// multiple of four through the scalar tree.
void DotColumnsAvx2(const double* a, const double* b, size_t k, size_t d,
                    double* out) {
  size_t c = 0;
  for (; c + 16 <= d; c += 16) ColumnTrees<4>(a, b + c, k, d, out + c);
  for (; c + 4 <= d; c += 4) ColumnTrees<1>(a, b + c, k, d, out + c);
  for (; c < d; ++c) {
    double lanes[kLanes] = {};
    for (size_t t = 0; t < k; ++t) lanes[t % kLanes] += a[t] * b[t * d + c];
    out[c] = CombineLanes(lanes);
  }
}

/// FMA dot: four contracted accumulators, 16 doubles per iteration.
/// Off-contract by design — see KernelTable::dot_fast.
double DotFastAvx2(const double* a, const double* b, size_t n) {
  __m256d v0 = _mm256_setzero_pd(), v1 = _mm256_setzero_pd();
  __m256d v2 = _mm256_setzero_pd(), v3 = _mm256_setzero_pd();
  const size_t body = n - n % 16;
  for (size_t i = 0; i < body; i += 16) {
    v0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), v0);
    v1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                         _mm256_loadu_pd(b + i + 4), v1);
    v2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                         _mm256_loadu_pd(b + i + 8), v2);
    v3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                         _mm256_loadu_pd(b + i + 12), v3);
  }
  const __m256d s = _mm256_add_pd(_mm256_add_pd(v0, v1),
                                  _mm256_add_pd(v2, v3));
  const __m128d lo = _mm256_castpd256_pd128(s);
  const __m128d hi = _mm256_extractf128_pd(s, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  double sum = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
  for (size_t i = body; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

/// Exact horizontal sum of 8 int32 lanes into an int64. Lanes widen to
/// int64 BEFORE any cross-lane addition — near-saturated accumulators
/// (e.g. every element +-127) would overflow an epi32 pairwise add.
inline int64_t HorizontalSumI32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  return static_cast<int64_t>(_mm_extract_epi32(lo, 0)) +
         _mm_extract_epi32(lo, 1) + _mm_extract_epi32(lo, 2) +
         _mm_extract_epi32(lo, 3) + _mm_extract_epi32(hi, 0) +
         _mm_extract_epi32(hi, 1) + _mm_extract_epi32(hi, 2) +
         _mm_extract_epi32(hi, 3);
}

// Per-iteration an int32 accumulator lane grows by at most one
// madd_epi16 pair: 2 * 127 * 127 for the dot, 2 * 254^2 for the
// squared distance. Flushing every kI8Chunk elements keeps lanes far
// below int32 range for any span length.
constexpr size_t kI8Chunk = 1u << 18;

int64_t DotI8Avx2(const int8_t* a, const int8_t* b, size_t n) {
  int64_t total = 0;
  size_t start = 0;
  while (start < n) {
    const size_t len = n - start < kI8Chunk ? n - start : kI8Chunk;
    const size_t body = len - len % 32;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    for (size_t i = 0; i < body; i += 32) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + start + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + start + i));
      const __m256i a_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
      const __m256i a_hi =
          _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
      const __m256i b_lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
      const __m256i b_hi =
          _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
      acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a_lo, b_lo));
      acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a_hi, b_hi));
    }
    total += HorizontalSumI32(acc0) + HorizontalSumI32(acc1);
    for (size_t i = body; i < len; ++i) {
      total += static_cast<int32_t>(a[start + i]) *
               static_cast<int32_t>(b[start + i]);
    }
    start += len;
  }
  return total;
}

int64_t SquaredL2I8Avx2(const int8_t* a, const int8_t* b, size_t n) {
  int64_t total = 0;
  size_t start = 0;
  while (start < n) {
    const size_t len = n - start < kI8Chunk ? n - start : kI8Chunk;
    const size_t body = len - len % 32;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    for (size_t i = 0; i < body; i += 32) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + start + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + start + i));
      const __m256i d_lo = _mm256_sub_epi16(
          _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va)),
          _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb)));
      const __m256i d_hi = _mm256_sub_epi16(
          _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1)),
          _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1)));
      acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(d_lo, d_lo));
      acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(d_hi, d_hi));
    }
    total += HorizontalSumI32(acc0) + HorizontalSumI32(acc1);
    for (size_t i = body; i < len; ++i) {
      const int32_t d = static_cast<int32_t>(a[start + i]) -
                        static_cast<int32_t>(b[start + i]);
      total += d * d;
    }
    start += len;
  }
  return total;
}

}  // namespace

const KernelTable* Avx2Kernels() {
  static const KernelTable table = {
      "avx2",         DotAvx2,     SquaredL2Avx2, CosineTermsAvx2,
      DotColumnsAvx2, DotFastAvx2, DotI8Avx2,     SquaredL2I8Avx2,
  };
  return &table;
}

}  // namespace colscope::linalg::simd

#else  // !(__AVX2__ && __FMA__)

namespace colscope::linalg::simd {

const KernelTable* Avx2Kernels() { return nullptr; }

}  // namespace colscope::linalg::simd

#endif
