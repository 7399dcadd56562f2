// Portable reference implementation of the span kernels. This file
// defines the canonical semantics: the 16-lane reduction tree written
// out here is what every SIMD table must reproduce bit for bit (see
// kernels.h). Keep the loops dumb — this is the fallback for machines
// without AVX2/NEON *and* the reference the equivalence tests and the
// SIMD-vs-scalar bench cells compare against.

#include "linalg/simd/kernels.h"

namespace colscope::linalg::simd {

namespace {

/// Fixed combine of the 16 partial sums: fold the high eight lanes
/// onto the low eight, then the 8-wide grouping that mirrors the
/// natural AVX2 horizontal reduction (lanewise adds, fold high half
/// onto low, fold the last pair), so the vector tables can use their
/// cheap horizontal adds and still match exactly.
inline double CombineLanes(const double acc[kLanes]) {
  double f[8];
  for (size_t j = 0; j < 8; ++j) f[j] = acc[j] + acc[j + 8];
  const double c0 = f[0] + f[4];
  const double c1 = f[1] + f[5];
  const double c2 = f[2] + f[6];
  const double c3 = f[3] + f[7];
  return (c0 + c2) + (c1 + c3);
}

double DotScalar(const double* a, const double* b, size_t n) {
  double acc[kLanes] = {};
  const size_t body = n - n % kLanes;
  for (size_t i = 0; i < body; i += kLanes) {
    for (size_t j = 0; j < kLanes; ++j) acc[j] += a[i + j] * b[i + j];
  }
  for (size_t t = 0; t < n - body; ++t) {
    acc[t] += a[body + t] * b[body + t];
  }
  return CombineLanes(acc);
}

double SquaredL2Scalar(const double* a, const double* b, size_t n) {
  double acc[kLanes] = {};
  const size_t body = n - n % kLanes;
  for (size_t i = 0; i < body; i += kLanes) {
    for (size_t j = 0; j < kLanes; ++j) {
      const double d = a[i + j] - b[i + j];
      acc[j] += d * d;
    }
  }
  for (size_t t = 0; t < n - body; ++t) {
    const double d = a[body + t] - b[body + t];
    acc[t] += d * d;
  }
  return CombineLanes(acc);
}

void DotColumnsScalar(const double* a, const double* b, size_t k, size_t d,
                      double* out) {
  const size_t body = k - k % kLanes;
  for (size_t c = 0; c < d; ++c) {
    const double* col = b + c;
    double acc[kLanes] = {};
    for (size_t i = 0; i < body; i += kLanes) {
      for (size_t j = 0; j < kLanes; ++j) {
        acc[j] += a[i + j] * col[(i + j) * d];
      }
    }
    for (size_t t = 0; t < k - body; ++t) {
      acc[t] += a[body + t] * col[(body + t) * d];
    }
    out[c] = CombineLanes(acc);
  }
}

int64_t DotI8Scalar(const int8_t* a, const int8_t* b, size_t n) {
  int64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return sum;
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      "scalar", DotScalar, SquaredL2Scalar, DotColumnsScalar, DotI8Scalar,
  };
  return table;
}

}  // namespace colscope::linalg::simd
