#include "matching/sim.h"

#include <numeric>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "linalg/stats.h"

namespace colscope::matching {

namespace {

/// linalg::Norm of each listed signature row, in list order: computed
/// once per call, so a pair costs one Dot.
std::vector<double> RowNorms(const scoping::SignatureSet& signatures,
                             const std::vector<size_t>& rows) {
  std::vector<double> norms;
  norms.reserve(rows.size());
  for (size_t r : rows) {
    norms.push_back(linalg::Norm(signatures.signatures.RowSpan(r)));
  }
  return norms;
}

/// The one per-pair decision of Match and MatchBlock: a cross-schema
/// candidate whose signature cosine reaches `threshold`. `norm_i` and
/// `norm_j` are the rows' norms; the dot is computed only for
/// candidates, and the cosine is linalg::CosineSimilarity's bits.
bool Links(const scoping::SignatureSet& signatures,
           const std::vector<bool>& active, double threshold, size_t i,
           size_t j, double norm_i, double norm_j) {
  return IsCandidate(signatures, active, i, j) &&
         linalg::CosineFromDot(
             linalg::Dot(signatures.signatures.RowSpan(i),
                         signatures.signatures.RowSpan(j)),
             norm_i, norm_j) >= threshold;
}

}  // namespace

std::string SimMatcher::name() const {
  return StrFormat("SIM(%.1f)", threshold_);
}

std::set<ElementPair> SimMatcher::Match(
    const scoping::SignatureSet& signatures,
    const std::vector<bool>& active) const {
  const size_t n = signatures.size();
  std::vector<size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  const std::vector<double> norms = RowNorms(signatures, all_rows);
  const auto row_matches = [&](size_t i, std::vector<ElementPair>& hits) {
    for (size_t j = i + 1; j < n; ++j) {
      if (Links(signatures, active, threshold_, i, j, norms[i], norms[j])) {
        hits.push_back(MakePair(signatures.refs[i], signatures.refs[j]));
      }
    }
  };
  std::set<ElementPair> out;
  if (pool_ == nullptr || pool_->num_threads() <= 1 || n < 2) {
    std::vector<ElementPair> hits;
    for (size_t i = 0; i < n; ++i) row_matches(i, hits);
    out.insert(hits.begin(), hits.end());
    return out;
  }
  // Per-row slots merged in index order: the set content is identical
  // to the serial loop at any thread count.
  std::vector<std::vector<ElementPair>> slots(n);
  (void)pool_->ParallelFor(n, [&](size_t i) { row_matches(i, slots[i]); });
  for (const auto& slot : slots) out.insert(slot.begin(), slot.end());
  return out;
}

std::string SimMatcher::BlockCacheId() const {
  return StrFormat("sim:t=%.17g", threshold_);
}

std::set<ElementPair> SimMatcher::MatchBlock(
    const scoping::SignatureSet& signatures, const std::vector<bool>& active,
    int schema_a, int schema_b) const {
  // The per-pair decision is Match()'s; restricting i to schema_a and j
  // to schema_b covers exactly the pairs Match() produces between these
  // two sources.
  std::set<ElementPair> out;
  const std::vector<size_t> rows_a = signatures.RowsOfSchema(schema_a);
  const std::vector<size_t> rows_b = signatures.RowsOfSchema(schema_b);
  const std::vector<double> norms_a = RowNorms(signatures, rows_a);
  const std::vector<double> norms_b = RowNorms(signatures, rows_b);
  for (size_t x = 0; x < rows_a.size(); ++x) {
    for (size_t y = 0; y < rows_b.size(); ++y) {
      const size_t i = rows_a[x];
      const size_t j = rows_b[y];
      if (Links(signatures, active, threshold_, i, j, norms_a[x],
                norms_b[y])) {
        out.insert(MakePair(signatures.refs[i], signatures.refs[j]));
      }
    }
  }
  return out;
}

size_t SimMatcher::ComparisonCount(const scoping::SignatureSet& signatures,
                                   const std::vector<bool>& active) {
  size_t count = 0;
  const size_t n = signatures.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      count += IsCandidate(signatures, active, i, j);
    }
  }
  return count;
}

}  // namespace colscope::matching
