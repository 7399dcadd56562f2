#include "matching/sim.h"

#include "common/strings.h"
#include "common/thread_pool.h"
#include "linalg/stats.h"

namespace colscope::matching {

namespace {

/// The one per-pair decision of Match and MatchBlock: a cross-schema
/// candidate whose signature cosine reaches `threshold`. The cosine is
/// computed only for candidates.
bool Links(const scoping::SignatureSet& signatures,
           const std::vector<bool>& active, double threshold, size_t i,
           size_t j) {
  return IsCandidate(signatures, active, i, j) &&
         linalg::CosineSimilarity(signatures.signatures.RowSpan(i),
                                  signatures.signatures.RowSpan(j)) >=
             threshold;
}

}  // namespace

std::string SimMatcher::name() const {
  return StrFormat("SIM(%.1f)", threshold_);
}

std::set<ElementPair> SimMatcher::Match(
    const scoping::SignatureSet& signatures,
    const std::vector<bool>& active) const {
  const size_t n = signatures.size();
  const auto row_matches = [&](size_t i, std::vector<ElementPair>& hits) {
    for (size_t j = i + 1; j < n; ++j) {
      if (Links(signatures, active, threshold_, i, j)) {
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
  for (size_t i : rows_a) {
    for (size_t j : rows_b) {
      if (Links(signatures, active, threshold_, i, j)) {
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
