#include "matching/kmeans.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/simd/kernels.h"

namespace colscope::matching {

namespace {

/// Rows per pool task in the per-row loops. ParallelFor queues one
/// mutex-guarded entry per index, which costs more than one row's
/// distance pass saves; a fixed block size keeps the split (and so the
/// work per task) independent of the thread count.
constexpr size_t kRowsPerTask = 32;

/// Runs task(i) for i in [0, count): across `pool` when there is one,
/// inline otherwise.
void RunTasks(ThreadPool* pool, size_t count,
              const std::function<void(size_t)>& task) {
  if (pool == nullptr) {
    for (size_t i = 0; i < count; ++i) task(i);
    return;
  }
  COLSCOPE_CHECK(pool->ParallelFor(count, task).ok());
}

/// Runs rows(begin, end) over consecutive kRowsPerTask blocks of [0, n).
void ForEachRowBlock(ThreadPool* pool, size_t n,
                     const std::function<void(size_t, size_t)>& rows) {
  RunTasks(pool, (n + kRowsPerTask - 1) / kRowsPerTask, [&](size_t block) {
    const size_t begin = block * kRowsPerTask;
    rows(begin, std::min(n, begin + kRowsPerTask));
  });
}

}  // namespace

KMeansResult KMeansCluster(const linalg::Matrix& points,
                           const KMeansOptions& options, ThreadPool* pool) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  COLSCOPE_CHECK(options.k >= 1);
  if (n == 0) return {};
  const size_t k = std::min(options.k, n);
  const linalg::simd::KernelTable& kernels = linalg::simd::Active();

  Rng rng(options.seed);
  KMeansResult result;
  linalg::Matrix& centroids = result.centroids;
  centroids = linalg::Matrix(k, d);

  // k-means++ seeding. The min_dist update is per row; the total and
  // the target walk stay serial in index order.
  std::copy_n(points.RowPtr(rng.NextBounded(n)), d, centroids.RowPtr(0));
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  for (size_t seeded = 1; seeded < k; ++seeded) {
    const double* last = centroids.RowPtr(seeded - 1);
    ForEachRowBlock(pool, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const double dist = kernels.squared_l2(points.RowPtr(i), last, d);
        min_dist[i] = std::min(min_dist[i], dist);
      }
    });
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) total += min_dist[i];
    size_t chosen = 0;
    if (total > 0.0) {
      double target = rng.NextDouble() * total;
      for (size_t i = 0; i < n; ++i) {
        target -= min_dist[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.NextBounded(n);  // All points identical.
    }
    std::copy_n(points.RowPtr(chosen), d, centroids.RowPtr(seeded));
  }

  // Lloyd iterations. Scratch for the whole run: per-row moved flags,
  // and the rows counting-sorted by cluster (members[offsets[c] ..
  // offsets[c + 1]) ascending) for the per-cluster update.
  std::vector<size_t>& assignment = result.assignment;
  assignment.assign(n, 0);
  std::vector<unsigned char> moved(n);
  std::vector<size_t> offsets(k + 1);
  std::vector<size_t> cursor(k);
  std::vector<size_t> members(n);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ForEachRowBlock(pool, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const double* row = points.RowPtr(i);
        size_t best = 0;
        double best_dist = std::numeric_limits<double>::max();
        for (size_t c = 0; c < k; ++c) {
          const double dist = kernels.squared_l2(row, centroids.RowPtr(c), d);
          if (dist < best_dist) {
            best_dist = dist;
            best = c;
          }
        }
        moved[i] = assignment[i] != best;
        assignment[i] = best;
      }
    });
    const bool changed =
        std::find(moved.begin(), moved.end(), 1) != moved.end();
    if (!changed && iter > 0) break;

    std::fill(offsets.begin(), offsets.end(), 0);
    for (size_t i = 0; i < n; ++i) ++offsets[assignment[i] + 1];
    for (size_t c = 0; c < k; ++c) offsets[c + 1] += offsets[c];
    std::copy_n(offsets.begin(), k, cursor.begin());
    for (size_t i = 0; i < n; ++i) members[cursor[assignment[i]]++] = i;

    // Each centroid is the sum of its members in ascending row order,
    // from +0.0, times 1 / count; empty clusters keep their position.
    RunTasks(pool, k, [&](size_t c) {
      const size_t begin = offsets[c];
      const size_t end = offsets[c + 1];
      if (begin == end) return;
      double* centroid = centroids.RowPtr(c);
      std::fill_n(centroid, d, 0.0);
      for (size_t m = begin; m < end; ++m) {
        const double* row = points.RowPtr(members[m]);
        for (size_t j = 0; j < d; ++j) centroid[j] += row[j];
      }
      const double inv = 1.0 / static_cast<double>(end - begin);
      for (size_t j = 0; j < d; ++j) centroid[j] *= inv;
    });
  }
  return result;
}

}  // namespace colscope::matching
