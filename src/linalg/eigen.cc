#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace colscope::linalg {

EigenDecomposition JacobiEigenSymmetric(const Matrix& a, double tolerance,
                                        int max_sweeps) {
  const size_t n = a.rows();
  COLSCOPE_CHECK(a.cols() == n);

  Matrix m = a;           // Working copy, driven to diagonal form.
  Matrix vt(n, n, 0.0);   // Accumulated rotations (rows = eigenvectors).
  for (size_t i = 0; i < n; ++i) vt(i, i) = 1.0;

  // Exact upper-triangle off-diagonal sum of squares, rescanned before
  // every sweep: O(n^2) against the sweep's O(n^3) rotations, and free
  // of the roundoff drift a running tally accumulates.
  auto exact_off2 = [&]() {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i)
      for (size_t j = i + 1; j < n; ++j) sum += m(i, j) * m(i, j);
    return sum;
  };

  const double tol2 = tolerance * tolerance;
  double off2 = exact_off2();
  int sweep = 0;
  for (; sweep < max_sweeps && off2 > tol2; ++sweep) {
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double app = m(p, p);
        const double aqq = m(q, q);
        const double tau = (aqq - app) / (2.0 * apq);
        // Smaller-magnitude root for numerical stability.
        const double t = (tau >= 0.0)
                             ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                             : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        // Apply the rotation to rows/cols p and q of m.
        for (size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        // Accumulate into the eigenvector rows (contiguous).
        double* vp = vt.RowPtr(p);
        double* vq = vt.RowPtr(q);
        for (size_t k = 0; k < n; ++k) {
          const double vpk = vp[k];
          const double vqk = vq[k];
          vp[k] = c * vpk - s * vqk;
          vq[k] = s * vpk + c * vqk;
        }
      }
    }
    off2 = exact_off2();
  }

  // Extract, sort descending by eigenvalue.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  Vector diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = m(i, i);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return diag[x] > diag[y]; });

  EigenDecomposition out;
  out.values.resize(n);
  out.sweeps = sweep;
  out.off_diagonal2 = off2;
  for (size_t i = 0; i < n; ++i) out.values[i] = diag[order[i]];
  out.vectors = GatherRows(vt, order);
  return out;
}

}  // namespace colscope::linalg
