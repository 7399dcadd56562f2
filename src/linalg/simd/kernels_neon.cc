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

}  // namespace

const KernelTable* NeonKernels() {
  static const KernelTable table = {
      "neon", DotNeon, SquaredL2Neon,
      ScalarKernels().dot_columns,  // See the note at the top.
      DotI8Neon,
  };
  return &table;
}

}  // namespace colscope::linalg::simd

#else  // !__aarch64__

namespace colscope::linalg::simd {

const KernelTable* NeonKernels() { return nullptr; }

}  // namespace colscope::linalg::simd

#endif
