#include "matching/cluster_matcher.h"

#include "common/strings.h"
#include "matching/silhouette.h"

namespace colscope::matching {

std::string ClusterMatcher::name() const {
  if (k_ == 0) return "CLUSTER(auto)";
  return StrFormat("CLUSTER(%zu)", k_);
}

std::set<ElementPair> ClusterMatcher::Match(
    const scoping::SignatureSet& signatures,
    const std::vector<bool>& active) const {
  std::set<ElementPair> out;

  // Determine the participating schemas.
  int max_schema = -1;
  for (const auto& ref : signatures.refs) {
    max_schema = std::max(max_schema, ref.schema);
  }

  for (int sa = 0; sa <= max_schema; ++sa) {
    for (int sb = sa + 1; sb <= max_schema; ++sb) {
      // Active rows of the two schemas.
      std::vector<size_t> rows;
      for (size_t i = 0; i < signatures.size(); ++i) {
        const int s = signatures.refs[i].schema;
        if (active[i] && (s == sa || s == sb)) rows.push_back(i);
      }
      if (rows.size() < 2) continue;

      const linalg::Matrix points =
          linalg::GatherRows(signatures.signatures, rows);
      KMeansOptions options;
      options.k = k_ > 0 ? k_
                         : SilhouetteBestK(points, 2,
                                           std::min<size_t>(20,
                                                            rows.size() - 1),
                                           seed_);
      options.seed = seed_;
      const std::vector<size_t> clusters =
          KMeansCluster(points, options).assignment;

      for (size_t i = 0; i < rows.size(); ++i) {
        for (size_t j = i + 1; j < rows.size(); ++j) {
          if (clusters[i] != clusters[j]) continue;
          if (!IsCandidate(signatures, active, rows[i], rows[j])) continue;
          out.insert(
              MakePair(signatures.refs[rows[i]], signatures.refs[rows[j]]));
        }
      }
    }
  }
  return out;
}

}  // namespace colscope::matching
