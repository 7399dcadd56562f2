#ifndef COLSCOPE_MATCHING_KMEANS_H_
#define COLSCOPE_MATCHING_KMEANS_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace colscope {
class ThreadPool;
}  // namespace colscope

namespace colscope::matching {

/// Lloyd's k-Means with k-means++ seeding. Deterministic for a fixed
/// seed.
struct KMeansOptions {
  size_t k = 5;
  int max_iterations = 100;
  uint64_t seed = 0x5eed;
};

struct KMeansResult {
  /// Per-row cluster ids in [0, min(k, n)).
  std::vector<size_t> assignment;
  /// min(k, n) x d. After max_iterations >= 1, row c of a non-empty
  /// cluster is the mean of its members, summed in ascending row order
  /// from +0.0 and scaled by 1 / count; an empty cluster keeps the
  /// position it had before the last update. With max_iterations 0
  /// these are the k-means++ seeds and every row is assigned cluster 0.
  linalg::Matrix centroids;
};

/// Clusters the rows of `points`. With a `pool`, the k-means++ distance
/// updates and the Lloyd assignment run over fixed blocks of rows and
/// each centroid update is one task, while the seeding sum, the
/// seeding walk and the convergence test stay on the caller in index
/// order: the result is bit-identical to the serial run (pool null) at
/// any thread count and with any kernel table. Call it from the
/// caller thread only, never from a task on `pool`: ParallelFor waits
/// for the whole pool. The scratch is allocated once per call on the
/// caller; the pool tasks allocate nothing.
KMeansResult KMeansCluster(const linalg::Matrix& points,
                           const KMeansOptions& options,
                           ThreadPool* pool = nullptr);

}  // namespace colscope::matching

#endif  // COLSCOPE_MATCHING_KMEANS_H_
