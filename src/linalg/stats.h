#ifndef COLSCOPE_LINALG_STATS_H_
#define COLSCOPE_LINALG_STATS_H_

#include "linalg/matrix.h"

namespace colscope::linalg {

/// Column-wise mean of the rows of `m` (the signature mean of Alg. 1).
Vector ColumnMean(const Matrix& m);

/// Column-wise (population) standard deviation of the rows of `m`.
Vector ColumnStdDev(const Matrix& m, const Vector& mean);

/// Returns `m` with `mean` subtracted from every row.
Matrix CenterRows(const Matrix& m, const Vector& mean);

/// Returns `m` with `mean` added to every row (reverse of CenterRows).
Matrix UncenterRows(const Matrix& m, const Vector& mean);

/// Dot product, Euclidean norm, and L2 distance. The span overloads are
/// the zero-copy spelling for matrix rows (Matrix::RowSpan) — a Vector
/// converts to std::span<const double> implicitly, so either form
/// accepts either argument.
double Dot(std::span<const double> a, std::span<const double> b);
double Norm(std::span<const double> a);
double L2Distance(std::span<const double> a, std::span<const double> b);
double SquaredL2Distance(std::span<const double> a,
                         std::span<const double> b);

/// Cosine similarity in [-1, 1]; zero vectors yield 0. Exactly
/// CosineFromDot(Dot(a, b), Norm(a), Norm(b)).
double CosineSimilarity(std::span<const double> a, std::span<const double> b);

/// The cosine formula itself: dot / (norm_a * norm_b), or 0 when either
/// norm is 0. A caller scoring one row against many computes each
/// row's Norm once and passes it here with one Dot per pair, which
/// gives CosineSimilarity's bits.
double CosineFromDot(double dot, double norm_a, double norm_b);

/// Mean squared error between two equally-sized vectors — the
/// reconstruction score used throughout the paper (Alg. 1 line 14).
double MeanSquaredError(std::span<const double> a, std::span<const double> b);

/// Per-row MSE between two equally-shaped matrices.
Vector RowwiseMse(const Matrix& a, const Matrix& b);

/// Normalizes `v` to unit L2 norm in place; zero vectors are untouched.
void NormalizeInPlace(Vector& v);

}  // namespace colscope::linalg

#endif  // COLSCOPE_LINALG_STATS_H_
