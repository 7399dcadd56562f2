#include "linalg/stats.h"

#include <cmath>

#include "linalg/simd/kernels.h"

namespace colscope::linalg {

Vector ColumnMean(const Matrix& m) {
  Vector mean(m.cols(), 0.0);
  if (m.rows() == 0) return mean;
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (size_t c = 0; c < m.cols(); ++c) mean[c] += row[c];
  }
  const double inv = 1.0 / static_cast<double>(m.rows());
  for (double& v : mean) v *= inv;
  return mean;
}

Vector ColumnStdDev(const Matrix& m, const Vector& mean) {
  COLSCOPE_CHECK(mean.size() == m.cols());
  Vector var(m.cols(), 0.0);
  if (m.rows() == 0) return var;
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      const double d = row[c] - mean[c];
      var[c] += d * d;
    }
  }
  const double inv = 1.0 / static_cast<double>(m.rows());
  for (double& v : var) v = std::sqrt(v * inv);
  return var;
}

Matrix CenterRows(const Matrix& m, const Vector& mean) {
  COLSCOPE_CHECK(mean.size() == m.cols());
  Matrix out = m;
  for (size_t r = 0; r < out.rows(); ++r) {
    double* row = out.RowPtr(r);
    for (size_t c = 0; c < out.cols(); ++c) row[c] -= mean[c];
  }
  return out;
}

Matrix UncenterRows(const Matrix& m, const Vector& mean) {
  COLSCOPE_CHECK(mean.size() == m.cols());
  Matrix out = m;
  for (size_t r = 0; r < out.rows(); ++r) {
    double* row = out.RowPtr(r);
    for (size_t c = 0; c < out.cols(); ++c) row[c] += mean[c];
  }
  return out;
}

double Dot(std::span<const double> a, std::span<const double> b) {
  COLSCOPE_CHECK(a.size() == b.size());
  return simd::Active().dot(a.data(), b.data(), a.size());
}

double Norm(std::span<const double> a) { return std::sqrt(Dot(a, a)); }

double SquaredL2Distance(std::span<const double> a,
                         std::span<const double> b) {
  COLSCOPE_CHECK(a.size() == b.size());
  return simd::Active().squared_l2(a.data(), b.data(), a.size());
}

double L2Distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(SquaredL2Distance(a, b));
}

double CosineSimilarity(std::span<const double> a,
                        std::span<const double> b) {
  return CosineFromDot(Dot(a, b), Norm(a), Norm(b));
}

double CosineFromDot(double dot, double norm_a, double norm_b) {
  if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
  return dot / (norm_a * norm_b);
}

double MeanSquaredError(std::span<const double> a,
                        std::span<const double> b) {
  COLSCOPE_CHECK(!a.empty());
  return SquaredL2Distance(a, b) / static_cast<double>(a.size());
}

Vector RowwiseMse(const Matrix& a, const Matrix& b) {
  COLSCOPE_CHECK(a.rows() == b.rows());
  COLSCOPE_CHECK(a.cols() == b.cols());
  Vector out(a.rows(), 0.0);
  const auto& kernels = simd::Active();
  for (size_t r = 0; r < a.rows(); ++r) {
    out[r] = kernels.squared_l2(a.RowPtr(r), b.RowPtr(r), a.cols()) /
             static_cast<double>(a.cols());
  }
  return out;
}

void NormalizeInPlace(Vector& v) {
  const double n = Norm(v);
  if (n == 0.0) return;
  const double inv = 1.0 / n;
  for (double& x : v) x *= inv;
}

}  // namespace colscope::linalg
