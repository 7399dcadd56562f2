// Equivalence tests for the optimized linalg kernels: Multiply against
// a per-cell scalar-reference-dot product (the canonical reduction tree
// of linalg/simd/kernels.h, which the dispatched kernels must match bit
// for bit), the fused MultiplyTransposedB against materializing the
// transpose, RowSpan aliasing, and the Gram-trick PCA fit against the
// covariance-path reference (identical up to component sign and
// floating-point eps).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/pca.h"
#include "linalg/simd/kernels.h"
#include "linalg/stats.h"
#include "scoped_force_scalar.h"

namespace colscope::linalg {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    double* row = m.RowPtr(r);
    for (size_t c = 0; c < cols; ++c) row[c] = rng.NextGaussian();
  }
  return m;
}

/// One scalar-reference dot per output cell over the transposed right
/// operand — the semantics Multiply must reproduce bit for bit
/// regardless of which SIMD table dispatch selected (the canonical
/// reduction tree is ISA-invariant by contract).
Matrix ReferenceMultiply(const Matrix& a, const Matrix& b) {
  const Matrix bt = b.Transposed();
  Matrix out(a.rows(), b.cols());
  const auto& scalar = simd::ScalarKernels();
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      out.RowPtr(i)[j] = scalar.dot(a.RowPtr(i), bt.RowPtr(j), a.cols());
    }
  }
  return out;
}

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a.RowPtr(r)[c], b.RowPtr(r)[c])
          << "mismatch at (" << r << ", " << c << ")";
    }
  }
}

TEST(BlockedMultiplyTest, BitIdenticalToReferenceAcrossShapes) {
  // Sizes straddle the 64-wide j-tile and the kernels' 8-lane body:
  // below, at, and past boundaries, including non-multiples so edge
  // tiles and reduction tails are exercised.
  const size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 2}, {63, 64, 65}, {64, 64, 64}, {70, 130, 90}};
  for (const auto& [m, k, n] : shapes) {
    const Matrix a = RandomMatrix(m, k, 17 * m + n);
    const Matrix b = RandomMatrix(k, n, 31 * k + m);
    ExpectBitIdentical(a.Multiply(b), ReferenceMultiply(a, b));
  }
}

TEST(BlockedMultiplyTest, ZerosInInputDoNotChangeResult) {
  // An ancient kernel skipped k-steps where a[i][k] == 0; the dot-based
  // one must not need that branch to stay exact (x * 0.0 adds exactly).
  Matrix a = RandomMatrix(20, 33, 7);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); k += 3) a.RowPtr(i)[k] = 0.0;
  }
  const Matrix b = RandomMatrix(33, 21, 8);
  ExpectBitIdentical(a.Multiply(b), ReferenceMultiply(a, b));
}

TEST(MultiplyTransposedBTest, BitIdenticalToTransposePath) {
  // Multiply is implemented as MultiplyTransposedB over the transpose,
  // so this checks the two public spellings stay exact mirrors across
  // narrow and wide shared dimensions.
  const size_t shapes[][3] = {
      {2, 9, 5}, {57, 91, 63}, {64, 64, 64}, {30, 300, 7}};
  for (const auto& [m, d, n] : shapes) {
    const Matrix a = RandomMatrix(m, d, 100 + m);
    const Matrix b = RandomMatrix(n, d, 200 + n);  // n x d; result m x n.
    ExpectBitIdentical(a.MultiplyTransposedB(b), a.Multiply(b.Transposed()));
  }
}

TEST(TransposedTest, RoundTripsAndSwapsShape) {
  const Matrix a = RandomMatrix(37, 81, 42);
  const Matrix t = a.Transposed();
  ASSERT_EQ(t.rows(), a.cols());
  ASSERT_EQ(t.cols(), a.rows());
  ExpectBitIdentical(t.Transposed(), a);
}

TEST(RowSpanTest, AliasesRowStorageWithoutCopying) {
  const Matrix a = RandomMatrix(5, 12, 3);
  for (size_t r = 0; r < a.rows(); ++r) {
    const auto span = a.RowSpan(r);
    EXPECT_EQ(span.data(), a.RowPtr(r));
    EXPECT_EQ(span.size(), a.cols());
  }
}

/// The composed whole-matrix reconstruction, Encode -> Decode ->
/// RowwiseMse, that the row-streamed error body must reproduce.
Vector ComposedReconstructionErrors(const PcaModel& pca, const Matrix& x) {
  return RowwiseMse(x, pca.Decode(pca.Encode(x)));
}

TEST(PcaRowErrorsTest, RowOverloadIsBitIdenticalToComposedKernels) {
  const Matrix train = RandomMatrix(10, 48, 0x70);
  const Matrix x = RandomMatrix(9, 48, 0x71);
  const auto pca = PcaModel::FitWithVariance(train, 0.8);
  ASSERT_TRUE(pca.ok());
  const Vector reference = ComposedReconstructionErrors(*pca, x);
  // The whole-matrix overload is the row body over every row.
  EXPECT_EQ(pca->ReconstructionErrors(x), reference);
  const std::vector<size_t> all = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(pca->ReconstructionErrors(x, all), reference);
  // Unsorted and repeated rows: one output per listed row, each equal
  // to that row's error in the full batch.
  const std::vector<size_t> listed = {7, 2, 2, 8, 0, 7};
  const Vector errors = pca->ReconstructionErrors(x, listed);
  ASSERT_EQ(errors.size(), listed.size());
  for (size_t i = 0; i < listed.size(); ++i) {
    EXPECT_EQ(errors[i], reference[listed[i]]) << "listed row " << i;
  }
  EXPECT_TRUE(pca->ReconstructionErrors(x, std::vector<size_t>{}).empty());
}

TEST(PcaRowErrorsTest, WideCodeAndColumnTailMatchComposedKernels) {
  // The fit above keeps k <= 9 components of d = 48, so the decode's
  // column dots never reach the 16-lane body and d % 4 == 0 leaves the
  // AVX2 column tail idle. Here k >= 17 and d % 4 == 2 run both, under
  // each kernel table; Decode (Matrix::Multiply over a transpose) stays
  // the independent reference.
  const Matrix train = RandomMatrix(40, 50, 0x72);
  const Matrix x = RandomMatrix(13, 50, 0x73);
  const auto pca = PcaModel::FitWithVariance(train, 0.99);
  ASSERT_TRUE(pca.ok());
  ASSERT_GE(pca->n_components(), 17u);
  ASSERT_NE(pca->dims() % 4, 0u);
  for (const char* force : {"1", ""}) {
    const simd::ScopedForceScalar pin(force);
    const std::string mode = simd::ActiveName();
    const Vector reference = ComposedReconstructionErrors(*pca, x);
    EXPECT_EQ(pca->ReconstructionErrors(x), reference) << mode;
    const std::vector<size_t> listed = {12, 0, 5, 5};
    const Vector errors = pca->ReconstructionErrors(x, listed);
    ASSERT_EQ(errors.size(), listed.size());
    for (size_t i = 0; i < listed.size(); ++i) {
      EXPECT_EQ(errors[i], reference[listed[i]]) << mode << " row " << i;
    }
  }
}

/// The Gram and covariance paths diagonalize different matrices, so
/// components may differ by sign and ~1e-9 noise; everything observable
/// (subspace, explained variance, reconstructions) must agree.
void ExpectEquivalentFits(const PcaModel& gram, const PcaModel& cov,
                          const Matrix& x) {
  ASSERT_EQ(gram.n_components(), cov.n_components());
  ASSERT_EQ(gram.dims(), cov.dims());
  const double eps = 1e-6;
  for (size_t d = 0; d < gram.dims(); ++d) {
    EXPECT_NEAR(gram.mean()[d], cov.mean()[d], eps);
  }
  for (size_t c = 0; c < gram.n_components(); ++c) {
    EXPECT_NEAR(gram.explained_variance()[c], cov.explained_variance()[c],
                eps);
    // Per-component sign is arbitrary: align on the largest-magnitude
    // coordinate, then compare element-wise.
    const double* g = gram.components().RowPtr(c);
    const double* v = cov.components().RowPtr(c);
    size_t pivot = 0;
    for (size_t d = 1; d < gram.dims(); ++d) {
      if (std::abs(g[d]) > std::abs(g[pivot])) pivot = d;
    }
    const double sign = (g[pivot] * v[pivot] >= 0.0) ? 1.0 : -1.0;
    for (size_t d = 0; d < gram.dims(); ++d) {
      EXPECT_NEAR(g[d], sign * v[d], eps) << "component " << c;
    }
  }
  // Reconstruction errors are sign-invariant — the strongest observable.
  const Vector gram_errors = gram.ReconstructionErrors(x);
  const Vector cov_errors = cov.ReconstructionErrors(x);
  ASSERT_EQ(gram_errors.size(), cov_errors.size());
  for (size_t i = 0; i < gram_errors.size(); ++i) {
    EXPECT_NEAR(gram_errors[i], cov_errors[i], eps);
  }
}

TEST(PcaFitPathTest, GramMatchesCovarianceAtVarianceTarget) {
  const Matrix x = RandomMatrix(12, 40, 0x5eed);
  const auto gram = PcaModel::FitWithVariance(x, 0.8, PcaFitPath::kGram);
  const auto cov = PcaModel::FitWithVariance(x, 0.8, PcaFitPath::kCovariance);
  ASSERT_TRUE(gram.ok()) << gram.status().ToString();
  ASSERT_TRUE(cov.ok()) << cov.status().ToString();
  ExpectEquivalentFits(*gram, *cov, x);
}

TEST(PcaFitPathTest, GramMatchesCovarianceAtFixedComponents) {
  const Matrix x = RandomMatrix(9, 25, 0xfeed);
  const auto gram = PcaModel::FitWithComponents(x, 4, PcaFitPath::kGram);
  const auto cov = PcaModel::FitWithComponents(x, 4, PcaFitPath::kCovariance);
  ASSERT_TRUE(gram.ok()) << gram.status().ToString();
  ASSERT_TRUE(cov.ok()) << cov.status().ToString();
  ExpectEquivalentFits(*gram, *cov, x);
}

TEST(PcaFitPathTest, AutoPicksTheShortWideFastPathConsistently) {
  // Short-and-wide (rows << dims) is every real schema's shape; kAuto
  // must produce exactly what an explicit kGram fit produces.
  const Matrix x = RandomMatrix(8, 64, 0xabcd);
  const auto auto_fit = PcaModel::FitWithVariance(x, 0.9, PcaFitPath::kAuto);
  const auto gram_fit = PcaModel::FitWithVariance(x, 0.9, PcaFitPath::kGram);
  ASSERT_TRUE(auto_fit.ok());
  ASSERT_TRUE(gram_fit.ok());
  ASSERT_EQ(auto_fit->n_components(), gram_fit->n_components());
  ExpectBitIdentical(auto_fit->components(), gram_fit->components());
}

}  // namespace
}  // namespace colscope::linalg
