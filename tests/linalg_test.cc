#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "linalg/pca.h"
#include "linalg/stats.h"
#include "linalg/svd.h"

namespace colscope::linalg {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng.NextGaussian();
  return m;
}

// --- Matrix ------------------------------------------------------------------

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, FromRowsRoundTrips) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.Row(1), (Vector{3, 4}));
}

TEST(MatrixTest, TransposedSwapsShape) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, MultiplyMatchesHandComputation) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyVector) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(a.MultiplyVector({1, 0, -1}), (Vector{-2, -2}));
}

TEST(MatrixTest, GatherRowsCopiesListedRowsBitForBit) {
  const Matrix m = RandomMatrix(6, 5, 21);
  const Matrix none = GatherRows(m, std::vector<size_t>{});
  EXPECT_EQ(none.rows(), 0u);
  EXPECT_EQ(none.cols(), 5u);
  // Repeated and unsorted ids: each output row is its source row, bit
  // for bit, in list order.
  const std::vector<size_t> rows = {4, 1, 4, 0, 5, 1};
  const Matrix g = GatherRows(m, rows);
  ASSERT_EQ(g.rows(), rows.size());
  ASSERT_EQ(g.cols(), m.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(std::memcmp(g.RowPtr(i), m.RowPtr(rows[i]),
                          m.cols() * sizeof(double)),
              0)
        << "row " << i;
  }
}

// --- Stats ---------------------------------------------------------------------

TEST(StatsTest, ColumnMeanAndCenter) {
  Matrix m = Matrix::FromRows({{1, 10}, {3, 20}});
  Vector mean = ColumnMean(m);
  EXPECT_EQ(mean, (Vector{2, 15}));
  Matrix c = CenterRows(m, mean);
  EXPECT_DOUBLE_EQ(c(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 5.0);
  Matrix back = UncenterRows(c, mean);
  EXPECT_DOUBLE_EQ(back(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(back(1, 1), 20.0);
}

TEST(StatsTest, ColumnStdDev) {
  Matrix m = Matrix::FromRows({{1, 0}, {3, 0}});
  Vector sd = ColumnStdDev(m, ColumnMean(m));
  EXPECT_DOUBLE_EQ(sd[0], 1.0);
  EXPECT_DOUBLE_EQ(sd[1], 0.0);
}

TEST(StatsTest, CosineSimilarityProperties) {
  EXPECT_DOUBLE_EQ(CosineSimilarity(Vector{1, 0}, Vector{1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(Vector{1, 0}, Vector{0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(Vector{1, 0}, Vector{-1, 0}), -1.0);
  // Zero vector.
  EXPECT_DOUBLE_EQ(CosineSimilarity(Vector{0, 0}, Vector{1, 0}), 0.0);
}

TEST(StatsTest, MseAndDistances) {
  EXPECT_DOUBLE_EQ(MeanSquaredError(Vector{0, 0}, Vector{3, 4}), 12.5);
  EXPECT_DOUBLE_EQ(L2Distance(Vector{0, 0}, Vector{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredL2Distance(Vector{0, 0}, Vector{3, 4}), 25.0);
}

TEST(StatsTest, RowwiseMse) {
  Matrix a = Matrix::FromRows({{0, 0}, {1, 1}});
  Matrix b = Matrix::FromRows({{3, 4}, {1, 1}});
  Vector mse = RowwiseMse(a, b);
  EXPECT_DOUBLE_EQ(mse[0], 12.5);
  EXPECT_DOUBLE_EQ(mse[1], 0.0);
}

TEST(StatsTest, NormalizeInPlace) {
  Vector v{3, 4};
  NormalizeInPlace(v);
  EXPECT_DOUBLE_EQ(Norm(v), 1.0);
  Vector zero{0, 0};
  NormalizeInPlace(zero);  // Must not divide by zero.
  EXPECT_EQ(zero, (Vector{0, 0}));
}

// --- Eigen ------------------------------------------------------------------------

TEST(EigenTest, DiagonalMatrix) {
  Matrix m = Matrix::FromRows({{3, 0}, {0, 1}});
  EigenDecomposition e = JacobiEigenSymmetric(m);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 1.0, 1e-12);
}

TEST(EigenTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix m = Matrix::FromRows({{2, 1}, {1, 2}});
  EigenDecomposition e = JacobiEigenSymmetric(m);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(e.vectors(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::fabs(e.vectors(0, 1)), std::sqrt(0.5), 1e-10);
}

TEST(EigenTest, ReconstructsRandomSymmetricMatrix) {
  const size_t n = 20;
  Matrix a = RandomMatrix(n, n, 5);
  // Symmetrize.
  Matrix sym(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) sym(i, j) = 0.5 * (a(i, j) + a(j, i));

  EigenDecomposition e = JacobiEigenSymmetric(sym);
  // Rebuild A = V^T diag(values) V with vectors as rows.
  Matrix rebuilt(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < n; ++k) {
        sum += e.vectors(k, i) * e.values[k] * e.vectors(k, j);
      }
      rebuilt(i, j) = sum;
    }
  }
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) EXPECT_NEAR(rebuilt(i, j), sym(i, j), 1e-8);
}

TEST(EigenTest, EigenvectorsOrthonormal) {
  const size_t n = 12;
  Matrix a = RandomMatrix(n, n, 6);
  Matrix sym(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) sym(i, j) = 0.5 * (a(i, j) + a(j, i));
  EigenDecomposition e = JacobiEigenSymmetric(sym);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double dot = Dot(e.vectors.Row(i), e.vectors.Row(j));
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(EigenTest, ConvergesWithoutHittingTheSweepCap) {
  // Row Grams of column-centered random n x 768 signatures, the shape
  // phase II hands the solver. A running off-diagonal tally freezes near
  // eps * off2(A) and stalls such solves at the sweep cap; the exact
  // per-sweep test stops them within a handful of sweeps.
  const size_t d = 768;
  const double tolerance = 1e-12;
  for (size_t n : {24, 48, 96, 144}) {
    for (uint64_t trial = 0; trial < 16; ++trial) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " trial=" << trial);
      Matrix x = RandomMatrix(n, d, 1000 * n + trial);
      for (size_t c = 0; c < d; ++c) {
        double mean = 0.0;
        for (size_t r = 0; r < n; ++r) mean += x(r, c);
        mean /= static_cast<double>(n);
        for (size_t r = 0; r < n; ++r) x(r, c) -= mean;
      }
      Matrix gram(n, n);
      for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
          gram(i, j) = Dot(x.RowSpan(i), x.RowSpan(j));

      EigenDecomposition e = JacobiEigenSymmetric(gram, tolerance);
      EXPECT_LE(e.sweeps, 12);
      EXPECT_LE(e.off_diagonal2, tolerance * tolerance);
      // Rebuild A = V^T diag(values) V with vectors as rows.
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          double sum = 0.0;
          for (size_t k = 0; k < n; ++k)
            sum += e.vectors(k, i) * e.values[k] * e.vectors(k, j);
          ASSERT_NEAR(sum, gram(i, j), 1e-8);
        }
      }
    }
  }
}

// --- SVD ---------------------------------------------------------------------------

TEST(SvdTest, ReconstructsWideMatrix) {
  // n < d, the shape used for schema signatures.
  Matrix x = RandomMatrix(8, 30, 7);
  SvdResult svd = ThinSvd(x);
  ASSERT_EQ(svd.singular_values.size(), 8u);
  // X ~= U diag(S) V^T.
  Matrix us(8, 8);
  for (size_t i = 0; i < 8; ++i)
    for (size_t k = 0; k < 8; ++k) us(i, k) = svd.u(i, k) * svd.singular_values[k];
  Matrix rebuilt = us.Multiply(svd.vt);
  for (size_t i = 0; i < x.rows(); ++i)
    for (size_t j = 0; j < x.cols(); ++j)
      EXPECT_NEAR(rebuilt(i, j), x(i, j), 1e-8);
}

TEST(SvdTest, ReconstructsTallMatrix) {
  Matrix x = RandomMatrix(30, 8, 8);
  SvdResult svd = ThinSvd(x);
  ASSERT_EQ(svd.singular_values.size(), 8u);
  Matrix us(30, 8);
  for (size_t i = 0; i < 30; ++i)
    for (size_t k = 0; k < 8; ++k) us(i, k) = svd.u(i, k) * svd.singular_values[k];
  Matrix rebuilt = us.Multiply(svd.vt);
  for (size_t i = 0; i < x.rows(); ++i)
    for (size_t j = 0; j < x.cols(); ++j)
      EXPECT_NEAR(rebuilt(i, j), x(i, j), 1e-8);
}

TEST(SvdTest, SingularValuesSortedDescending) {
  Matrix x = RandomMatrix(10, 20, 9);
  SvdResult svd = ThinSvd(x);
  for (size_t i = 1; i < svd.singular_values.size(); ++i) {
    EXPECT_GE(svd.singular_values[i - 1], svd.singular_values[i] - 1e-12);
  }
}

TEST(SvdTest, RightSingularVectorsOrthonormal) {
  Matrix x = RandomMatrix(6, 15, 10);
  SvdResult svd = ThinSvd(x);
  for (size_t i = 0; i < svd.vt.rows(); ++i) {
    for (size_t j = 0; j < svd.vt.rows(); ++j) {
      const double dot = Dot(svd.vt.Row(i), svd.vt.Row(j));
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(SvdTest, RankDeficientMatrixDropsNullDirections) {
  // Two identical rows -> rank 1.
  Matrix x = Matrix::FromRows({{1, 2, 3}, {1, 2, 3}});
  SvdResult svd = ThinSvd(x);
  EXPECT_EQ(svd.singular_values.size(), 1u);
}

TEST(SvdTest, ExplainedVarianceRatiosSumToOne) {
  Matrix x = RandomMatrix(9, 12, 11);
  SvdResult svd = ThinSvd(x);
  Vector ev = ExplainedVarianceRatios(svd.singular_values);
  double sum = 0.0;
  for (double v : ev) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SvdTest, ComponentsForVarianceBoundaries) {
  Vector ev{0.5, 0.3, 0.2};
  EXPECT_EQ(ComponentsForVariance(ev, 0.4), 1u);
  EXPECT_EQ(ComponentsForVariance(ev, 0.5), 1u);
  EXPECT_EQ(ComponentsForVariance(ev, 0.51), 2u);
  EXPECT_EQ(ComponentsForVariance(ev, 0.99), 3u);
  EXPECT_EQ(ComponentsForVariance(ev, 1.0), 3u);
  EXPECT_EQ(ComponentsForVariance({}, 0.5), 1u);
}

// --- PCA ----------------------------------------------------------------------------

TEST(PcaTest, FullVarianceReconstructsExactly) {
  Matrix x = RandomMatrix(10, 6, 12);
  Result<PcaModel> model = PcaModel::FitWithVariance(x, 1.0);
  ASSERT_TRUE(model.ok());
  Vector errors = model->ReconstructionErrors(x);
  for (double e : errors) EXPECT_NEAR(e, 0.0, 1e-10);
}

TEST(PcaTest, LowVarianceLeavesResidualError) {
  Matrix x = RandomMatrix(40, 10, 13);
  Result<PcaModel> model = PcaModel::FitWithVariance(x, 0.3);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(model->n_components(), 10u);
  Vector errors = model->ReconstructionErrors(x);
  double total = 0.0;
  for (double e : errors) total += e;
  EXPECT_GT(total, 0.0);
}

TEST(PcaTest, MoreComponentsNeverIncreaseTrainError) {
  Matrix x = RandomMatrix(30, 12, 14);
  double prev = 1e100;
  for (size_t k : {1, 3, 6, 12}) {
    Result<PcaModel> model = PcaModel::FitWithComponents(x, k);
    ASSERT_TRUE(model.ok());
    Vector errors = model->ReconstructionErrors(x);
    double total = 0.0;
    for (double e : errors) total += e;
    EXPECT_LE(total, prev + 1e-9);
    prev = total;
  }
}

TEST(PcaTest, EncodeDecodeShapes) {
  Matrix x = RandomMatrix(5, 8, 15);
  Result<PcaModel> model = PcaModel::FitWithComponents(x, 3);
  ASSERT_TRUE(model.ok());
  Matrix z = model->Encode(x);
  EXPECT_EQ(z.rows(), 5u);
  EXPECT_EQ(z.cols(), 3u);
  Matrix back = model->Decode(z);
  EXPECT_EQ(back.rows(), 5u);
  EXPECT_EQ(back.cols(), 8u);
}

TEST(PcaTest, MeanOnlyModelForConstantData) {
  Matrix x(4, 3);
  for (size_t r = 0; r < 4; ++r)
    for (size_t c = 0; c < 3; ++c) x(r, c) = 7.0;
  Result<PcaModel> model = PcaModel::FitWithVariance(x, 0.9);
  ASSERT_TRUE(model.ok());
  // Constant data reconstructs exactly through the mean.
  EXPECT_NEAR(model->ReconstructionError(x.Row(0)), 0.0, 1e-12);
}

TEST(PcaTest, RejectsBadArguments) {
  Matrix x = RandomMatrix(4, 3, 16);
  EXPECT_FALSE(PcaModel::FitWithVariance(x, 0.0).ok());
  EXPECT_FALSE(PcaModel::FitWithVariance(x, 1.5).ok());
  EXPECT_FALSE(PcaModel::FitWithComponents(x, 0).ok());
  EXPECT_FALSE(PcaModel::FitWithVariance(Matrix(), 0.5).ok());
}

TEST(PcaTest, VarianceTargetControlsComponentCount) {
  Matrix x = RandomMatrix(50, 20, 17);
  Result<PcaModel> low = PcaModel::FitWithVariance(x, 0.2);
  Result<PcaModel> high = PcaModel::FitWithVariance(x, 0.95);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_LT(low->n_components(), high->n_components());
  EXPECT_GE(low->total_explained_variance(), 0.2);
  EXPECT_GE(high->total_explained_variance(), 0.95);
}

}  // namespace
}  // namespace colscope::linalg
