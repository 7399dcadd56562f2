#include "matching/silhouette.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "linalg/stats.h"
#include "matching/kmeans.h"

namespace colscope::matching {

double MeanSilhouette(const linalg::Matrix& points,
                      const std::vector<size_t>& assignment) {
  const size_t n = points.rows();
  COLSCOPE_CHECK(assignment.size() == n);
  if (n < 2) return 0.0;
  size_t num_clusters = 0;
  for (size_t a : assignment) num_clusters = std::max(num_clusters, a + 1);
  if (num_clusters < 2) return 0.0;

  std::vector<size_t> cluster_size(num_clusters, 0);
  for (size_t a : assignment) ++cluster_size[a];

  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    // Mean distance from i to every cluster.
    std::vector<double> mean_dist(num_clusters, 0.0);
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      mean_dist[assignment[j]] +=
          linalg::L2Distance(points.RowSpan(i), points.RowSpan(j));
    }
    const size_t own = assignment[i];
    if (cluster_size[own] <= 1) continue;  // Singleton contributes 0.
    double a = mean_dist[own] / static_cast<double>(cluster_size[own] - 1);
    double b = std::numeric_limits<double>::max();
    for (size_t c = 0; c < num_clusters; ++c) {
      if (c == own || cluster_size[c] == 0) continue;
      b = std::min(b, mean_dist[c] / static_cast<double>(cluster_size[c]));
    }
    if (b == std::numeric_limits<double>::max()) continue;
    const double denom = std::max(a, b);
    total += denom > 0.0 ? (b - a) / denom : 0.0;
  }
  return total / static_cast<double>(n);
}

size_t SilhouetteBestK(const linalg::Matrix& points, size_t min_k,
                       size_t max_k, uint64_t seed) {
  COLSCOPE_CHECK(min_k >= 2);
  COLSCOPE_CHECK(max_k >= min_k);
  const size_t n = points.rows();
  if (n < 3) return min_k;
  const size_t hi = std::min(max_k, n - 1);

  size_t best_k = min_k;
  double best_score = -2.0;
  for (size_t k = min_k; k <= hi; ++k) {
    KMeansOptions options;
    options.k = k;
    options.seed = seed;
    const auto assignment = KMeansCluster(points, options).assignment;
    const double score = MeanSilhouette(points, assignment);
    if (score > best_score) {
      best_score = score;
      best_k = k;
    }
  }
  return best_k;
}

}  // namespace colscope::matching
