// NEON span kernels (aarch64 — NEON is baseline there, so no special
// compile flags). Doubles are 2-wide on NEON, so the canonical 16-lane
// reduction tree maps onto eight float64x2 accumulators: q[v] = lanes
// {2v, 2v+1} — eight independent add chains, comfortably clearing fadd
// latency within the 32 vector registers. Multiply and add stay
// separate rounded operations (vmlaq may contract on some compilers, so
// explicit vmul+vadd), the tail reuses the scalar reference code, and
// the combine follows the fixed lane grouping — bit-identical to the
// scalar table. dot_columns is the scalar reference itself: no aarch64
// host has been available to check a NEON body against it, and an
// unchecked body could ship different bits.

#include "linalg/simd/kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace colscope::linalg::simd {

namespace {

constexpr size_t kVecs = kLanes / 2;  // float64x2 accumulators per tree.

inline double FinishTree(const float64x2_t q[kVecs], const double tail[],
                         size_t rem) {
  double lanes[kLanes];
  for (size_t v = 0; v < kVecs; ++v) vst1q_f64(lanes + 2 * v, q[v]);
  for (size_t t = 0; t < rem; ++t) lanes[t] += tail[t];
  double f[8];
  for (size_t j = 0; j < 8; ++j) f[j] = lanes[j] + lanes[j + 8];
  const double c0 = f[0] + f[4];
  const double c1 = f[1] + f[5];
  const double c2 = f[2] + f[6];
  const double c3 = f[3] + f[7];
  return (c0 + c2) + (c1 + c3);
}

inline void ZeroTree(float64x2_t q[kVecs]) {
  for (size_t v = 0; v < kVecs; ++v) q[v] = vdupq_n_f64(0.0);
}

double DotNeon(const double* a, const double* b, size_t n) {
  float64x2_t q[kVecs];
  ZeroTree(q);
  const size_t body = n - n % kLanes;
  for (size_t i = 0; i < body; i += kLanes) {
    for (size_t v = 0; v < kVecs; ++v) {
      q[v] = vaddq_f64(
          q[v], vmulq_f64(vld1q_f64(a + i + 2 * v), vld1q_f64(b + i + 2 * v)));
    }
  }
  double tail[kLanes] = {};
  const size_t rem = n - body;
  for (size_t t = 0; t < rem; ++t) tail[t] = a[body + t] * b[body + t];
  return FinishTree(q, tail, rem);
}

double SquaredL2Neon(const double* a, const double* b, size_t n) {
  float64x2_t q[kVecs];
  ZeroTree(q);
  const size_t body = n - n % kLanes;
  for (size_t i = 0; i < body; i += kLanes) {
    for (size_t v = 0; v < kVecs; ++v) {
      const float64x2_t d =
          vsubq_f64(vld1q_f64(a + i + 2 * v), vld1q_f64(b + i + 2 * v));
      q[v] = vaddq_f64(q[v], vmulq_f64(d, d));
    }
  }
  double tail[kLanes] = {};
  const size_t rem = n - body;
  for (size_t t = 0; t < rem; ++t) {
    const double d = a[body + t] - b[body + t];
    tail[t] = d * d;
  }
  return FinishTree(q, tail, rem);
}

void CosineTermsNeon(const double* a, const double* b, size_t n,
                     double* dot_ab, double* norm2_a, double* norm2_b) {
  // Three trees in one pass; 24 live accumulators fit aarch64's 32
  // vector registers.
  float64x2_t ab[kVecs], aa[kVecs], bb[kVecs];
  ZeroTree(ab);
  ZeroTree(aa);
  ZeroTree(bb);
  const size_t body = n - n % kLanes;
  for (size_t i = 0; i < body; i += kLanes) {
    for (size_t v = 0; v < kVecs; ++v) {
      const float64x2_t x = vld1q_f64(a + i + 2 * v);
      const float64x2_t y = vld1q_f64(b + i + 2 * v);
      ab[v] = vaddq_f64(ab[v], vmulq_f64(x, y));
      aa[v] = vaddq_f64(aa[v], vmulq_f64(x, x));
      bb[v] = vaddq_f64(bb[v], vmulq_f64(y, y));
    }
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
  *dot_ab = FinishTree(ab, tail_ab, rem);
  *norm2_a = FinishTree(aa, tail_aa, rem);
  *norm2_b = FinishTree(bb, tail_bb, rem);
}

/// FMA variant (vfmaq contracts by definition). Off-contract like the
/// AVX2 dot_fast.
double DotFastNeon(const double* a, const double* b, size_t n) {
  float64x2_t q[kVecs];
  ZeroTree(q);
  const size_t body = n - n % kLanes;
  for (size_t i = 0; i < body; i += kLanes) {
    for (size_t v = 0; v < kVecs; ++v) {
      q[v] = vfmaq_f64(q[v], vld1q_f64(a + i + 2 * v),
                       vld1q_f64(b + i + 2 * v));
    }
  }
  float64x2_t s = vaddq_f64(vaddq_f64(q[0], q[1]), vaddq_f64(q[2], q[3]));
  s = vaddq_f64(s, vaddq_f64(vaddq_f64(q[4], q[5]), vaddq_f64(q[6], q[7])));
  double sum = vaddvq_f64(s);
  for (size_t i = body; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

int64_t DotI8Neon(const int8_t* a, const int8_t* b, size_t n) {
  int64_t total = 0;
  const size_t body = n - n % 16;
  int64x2_t acc = vdupq_n_s64(0);
  for (size_t i = 0; i < body; i += 16) {
    const int8x16_t va = vld1q_s8(a + i);
    const int8x16_t vb = vld1q_s8(b + i);
    const int16x8_t lo = vmull_s8(vget_low_s8(va), vget_low_s8(vb));
    const int16x8_t hi = vmull_s8(vget_high_s8(va), vget_high_s8(vb));
    // Pairwise-widen to 32 then 64 bits; integer adds are exact, so no
    // chunking subtleties — an int64 accumulator never overflows here.
    const int32x4_t s32 = vaddq_s32(vpaddlq_s16(lo), vpaddlq_s16(hi));
    acc = vaddq_s64(acc, vpaddlq_s32(s32));
  }
  total += vaddvq_s64(acc);
  for (size_t i = body; i < n; ++i) {
    total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return total;
}

int64_t SquaredL2I8Neon(const int8_t* a, const int8_t* b, size_t n) {
  int64_t total = 0;
  const size_t body = n - n % 16;
  int64x2_t acc = vdupq_n_s64(0);
  for (size_t i = 0; i < body; i += 16) {
    const int8x16_t va = vld1q_s8(a + i);
    const int8x16_t vb = vld1q_s8(b + i);
    const int16x8_t d_lo = vsubl_s8(vget_low_s8(va), vget_low_s8(vb));
    const int16x8_t d_hi = vsubl_s8(vget_high_s8(va), vget_high_s8(vb));
    const int32x4_t sq =
        vaddq_s32(vpaddlq_s16(vmulq_s16(d_lo, d_lo)),
                  vpaddlq_s16(vmulq_s16(d_hi, d_hi)));
    acc = vaddq_s64(acc, vpaddlq_s32(sq));
  }
  total += vaddvq_s64(acc);
  for (size_t i = body; i < n; ++i) {
    const int32_t d = static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
    total += d * d;
  }
  return total;
}

}  // namespace

const KernelTable* NeonKernels() {
  static const KernelTable table = {
      "neon",      DotNeon,   SquaredL2Neon,   CosineTermsNeon,
      ScalarKernels().dot_columns,  // See the note at the top.
      DotFastNeon, DotI8Neon, SquaredL2I8Neon,
  };
  return &table;
}

}  // namespace colscope::linalg::simd

#else  // !__aarch64__

namespace colscope::linalg::simd {

const KernelTable* NeonKernels() { return nullptr; }

}  // namespace colscope::linalg::simd

#endif
