#include "linalg/pca.h"

#include <algorithm>
#include <numeric>

#include "linalg/simd/kernels.h"
#include "linalg/stats.h"
#include "linalg/svd.h"

namespace colscope::linalg {

Result<PcaModel> PcaModel::FitWithVariance(const Matrix& x,
                                           double variance_target,
                                           PcaFitPath path) {
  if (variance_target <= 0.0 || variance_target > 1.0) {
    return Status::InvalidArgument("variance target must be in (0, 1]");
  }
  return Fit(x, variance_target, 0, path);
}

Result<PcaModel> PcaModel::FitWithComponents(const Matrix& x,
                                             size_t n_components,
                                             PcaFitPath path) {
  if (n_components == 0) {
    return Status::InvalidArgument("n_components must be >= 1");
  }
  return Fit(x, -1.0, n_components, path);
}

Result<PcaModel> PcaModel::FromParts(Vector mean, Matrix components) {
  if (mean.empty() || components.rows() == 0) {
    return Status::InvalidArgument("mean and components must be non-empty");
  }
  if (components.cols() != mean.size()) {
    return Status::InvalidArgument(
        "component length must equal the mean dimensionality");
  }
  PcaModel model;
  model.mean_ = std::move(mean);
  model.components_ = std::move(components);
  return model;
}

Result<PcaModel> PcaModel::Fit(const Matrix& x, double variance_target,
                               size_t fixed_components, PcaFitPath path) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("PCA requires a non-empty matrix");
  }
  PcaModel model;
  model.mean_ = ColumnMean(x);
  const Matrix centered = CenterRows(x, model.mean_);
  const GramSide side = path == PcaFitPath::kGram         ? GramSide::kRows
                        : path == PcaFitPath::kCovariance ? GramSide::kCols
                                                          : GramSide::kAuto;
  SvdResult svd = ThinSvd(centered, /*rank_tolerance=*/1e-10, side);
  const Vector ev = ExplainedVarianceRatios(svd.singular_values);

  size_t keep = 0;
  if (fixed_components > 0) {
    keep = std::min(fixed_components, svd.singular_values.size());
  } else {
    keep = ComponentsForVariance(ev, variance_target);
  }
  COLSCOPE_CHECK(keep >= 1);

  model.components_ = Matrix(keep, x.cols());
  for (size_t k = 0; k < keep; ++k) {
    for (size_t c = 0; c < x.cols(); ++c) {
      model.components_(k, c) = svd.vt(k, c);
    }
  }
  model.explained_variance_.assign(ev.begin(), ev.begin() + keep);
  return model;
}

Matrix PcaModel::Encode(const Matrix& x) const {
  COLSCOPE_CHECK(x.cols() == dims());
  const Matrix centered = CenterRows(x, mean_);
  return centered.MultiplyTransposedB(components_);
}

Matrix PcaModel::Decode(const Matrix& z) const {
  COLSCOPE_CHECK(z.cols() == n_components());
  const Matrix expanded = z.Multiply(components_);
  return UncenterRows(expanded, mean_);
}

Vector PcaModel::ReconstructionErrors(const Matrix& x) const {
  std::vector<size_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  return ReconstructionErrors(x, rows);
}

Vector PcaModel::ReconstructionErrors(const Matrix& x,
                                      std::span<const size_t> rows) const {
  COLSCOPE_CHECK(x.cols() == dims());
  const auto& kernels = simd::Active();
  const size_t d = dims();
  const size_t k = n_components();
  // Transposed per call, not kept with the model: a second long-lived
  // k x d copy per model raised the benchmark's peak RSS through heap
  // fragmentation, while one transpose per call costs O(k·d).
  const Matrix components_t = components_.Transposed();
  Vector centered(d);
  Vector code(k);
  Vector reconstructed(d);
  Vector out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    COLSCOPE_CHECK(rows[i] < x.rows());
    const double* row = x.RowPtr(rows[i]);
    for (size_t c = 0; c < d; ++c) centered[c] = row[c] - mean_[c];
    for (size_t j = 0; j < k; ++j) {
      code[j] = kernels.dot(centered.data(), components_.RowPtr(j), d);
    }
    for (size_t c = 0; c < d; ++c) {
      reconstructed[c] =
          kernels.dot(code.data(), components_t.RowPtr(c), k) + mean_[c];
    }
    out[i] = kernels.squared_l2(row, reconstructed.data(), d) /
             static_cast<double>(d);
  }
  return out;
}

double PcaModel::ReconstructionError(const Vector& v) const {
  Matrix one(1, v.size());
  one.SetRow(0, v);
  return ReconstructionErrors(one)[0];
}

double PcaModel::total_explained_variance() const {
  double sum = 0.0;
  for (double v : explained_variance_) sum += v;
  return sum;
}

}  // namespace colscope::linalg
