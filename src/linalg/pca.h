#ifndef COLSCOPE_LINALG_PCA_H_
#define COLSCOPE_LINALG_PCA_H_

#include <span>

#include "common/status.h"
#include "linalg/matrix.h"

namespace colscope::linalg {

/// Which eigendecomposition route a PCA fit takes. Signature blocks are
/// short and wide (a schema has tens of elements, signatures have ~768
/// dimensions), so the Gram trick — eigendecomposing the n x n row Gram
/// matrix instead of the d x d covariance — cuts the cubic Jacobi cost
/// by (d/n)^3, two to three orders of magnitude at paper scale.
enum class PcaFitPath {
  kAuto,        ///< Gram side picked by shape (rows when n <= d).
  kGram,        ///< Force the n x n row-Gram eigendecomposition.
  kCovariance,  ///< Force the d x d covariance path (reference baseline).
};

/// A fitted PCA encoder-decoder: the local mean, the selected principal
/// components (rows of `components`, each of length d), and bookkeeping
/// about how much variance they explain. This is the reusable
/// encoder-decoder of Algorithm 1 lines 3-13.
class PcaModel {
 public:
  /// Fits PCA on the rows of `x`, keeping the smallest number of leading
  /// components whose cumulative explained variance reaches
  /// `variance_target` in (0, 1]. Requires at least one row. The fit
  /// path defaults to kAuto (the Gram trick whenever rows <= dims);
  /// kCovariance exists as the slow reference the equivalence tests and
  /// benches compare against.
  static Result<PcaModel> FitWithVariance(
      const Matrix& x, double variance_target,
      PcaFitPath path = PcaFitPath::kAuto);

  /// Fits PCA keeping exactly `n_components` components (clamped to the
  /// rank of the centered data).
  static Result<PcaModel> FitWithComponents(
      const Matrix& x, size_t n_components,
      PcaFitPath path = PcaFitPath::kAuto);

  /// Reassembles a model from its parts (e.g. after deserialization).
  /// `components` rows must have length mean.size(); the explained-
  /// variance bookkeeping is not recoverable and is left empty.
  static Result<PcaModel> FromParts(Vector mean, Matrix components);

  /// Projects rows of `x` into the component space: (x - mean) * PC^T.
  Matrix Encode(const Matrix& x) const;

  /// Reconstructs encoded rows back to the input space: z * PC + mean.
  Matrix Decode(const Matrix& z) const;

  /// Per-row reconstruction MSE of `x` (the outlier score s_{k_i}):
  /// ReconstructionErrors over every row in order.
  Vector ReconstructionErrors(const Matrix& x) const;

  /// Reconstruction MSE of the rows of `x` listed in `rows` (any order,
  /// repeats allowed), one output per listed row. Each row is streamed
  /// through the kernels of Encode -> Decode -> RowwiseMse in the same
  /// order — center, k dots against the components, one `dot_columns`
  /// call over the components (d column dots of length k, no transpose),
  /// add the mean, squared L2 / d — so a row's error is bit-identical to
  /// the composed whole-matrix kernels and independent of which other
  /// rows are listed.
  Vector ReconstructionErrors(const Matrix& x,
                              std::span<const size_t> rows) const;

  /// Reconstruction MSE of a single signature.
  double ReconstructionError(const Vector& v) const;

  const Vector& mean() const { return mean_; }
  const Matrix& components() const { return components_; }
  size_t n_components() const { return components_.rows(); }
  size_t dims() const { return mean_.size(); }

  /// Explained-variance ratio of each *kept* component.
  const Vector& explained_variance() const { return explained_variance_; }

  /// Cumulative explained variance of the kept components.
  double total_explained_variance() const;

 private:
  PcaModel() = default;
  static Result<PcaModel> Fit(const Matrix& x, double variance_target,
                              size_t fixed_components, PcaFitPath path);

  Vector mean_;
  Matrix components_;  // n_components x d, orthonormal rows.
  Vector explained_variance_;
};

}  // namespace colscope::linalg

#endif  // COLSCOPE_LINALG_PCA_H_
