#ifndef COLSCOPE_LINALG_EIGEN_H_
#define COLSCOPE_LINALG_EIGEN_H_

#include "linalg/matrix.h"

namespace colscope::linalg {

/// Result of a symmetric eigendecomposition A = V diag(values) V^T.
/// Eigenvalues are sorted in descending order; `vectors` stores the
/// corresponding eigenvectors as ROWS (row i pairs with values[i]).
struct EigenDecomposition {
  Vector values;
  Matrix vectors;
  /// Jacobi sweeps performed (at most the solver's `max_sweeps`).
  int sweeps = 0;
  /// Exact upper-triangle off-diagonal sum of squares left after the
  /// last sweep (<= tolerance^2 unless the sweep cap was hit).
  double off_diagonal2 = 0.0;
};

/// Eigendecomposition of a symmetric matrix via the cyclic Jacobi
/// rotation method. Deterministic, O(n^3) per sweep; converges in a
/// handful of sweeps for the matrix sizes this library handles
/// (n <= a few hundred). Each sweep starts with an exact O(n^2) rescan
/// of the upper-triangle off-diagonal sum of squares and the solver
/// stops once it is <= tolerance^2 (or after `max_sweeps` sweeps).
/// `a` must be square and symmetric.
EigenDecomposition JacobiEigenSymmetric(const Matrix& a,
                                        double tolerance = 1e-12,
                                        int max_sweeps = 64);

}  // namespace colscope::linalg

#endif  // COLSCOPE_LINALG_EIGEN_H_
