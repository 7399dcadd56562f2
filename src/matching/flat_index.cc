#include "matching/flat_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "linalg/stats.h"

namespace colscope::matching {

std::vector<size_t> RankNearest(const linalg::Matrix& vectors,
                                std::span<const size_t> candidates,
                                std::span<const double> query, size_t k,
                                const embed::QuantizedSignatureStore* store,
                                size_t rescore_factor) {
  const size_t keep = std::min(k, candidates.size());
  // (distance, id) pairs: pair order is exactly the (distance, id)
  // tie-break, so the ranking does not depend on the candidate order.
  std::vector<std::pair<double, size_t>> ranked;
  ranked.reserve(candidates.size());
  if (store != nullptr && keep < candidates.size()) {
    const embed::QuantizedQuery q = store->Quantize(query);
    for (size_t id : candidates) {
      ranked.emplace_back(store->ApproxSquaredL2(id, q), id);
    }
    const size_t pool_size = std::min(
        ranked.size(), keep * std::max<size_t>(rescore_factor, 1));
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<long>(pool_size),
                      ranked.end());
    ranked.resize(pool_size);
    for (auto& [distance, id] : ranked) {
      distance = linalg::SquaredL2Distance(vectors.RowSpan(id), query);
    }
  } else {
    for (size_t id : candidates) {
      ranked.emplace_back(
          linalg::SquaredL2Distance(vectors.RowSpan(id), query), id);
    }
  }
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(keep),
                    ranked.end());
  std::vector<size_t> out;
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) out.push_back(ranked[i].second);
  return out;
}

FlatL2Index::FlatL2Index(linalg::Matrix vectors)
    : FlatL2Index(std::move(vectors), Options()) {}

FlatL2Index::FlatL2Index(linalg::Matrix vectors, Options options)
    : vectors_(std::move(vectors)), options_(options), ids_(vectors_.rows()) {
  std::iota(ids_.begin(), ids_.end(), 0);
  if (options_.quantized) {
    store_ = std::make_unique<embed::QuantizedSignatureStore>(vectors_);
  }
}

std::vector<size_t> FlatL2Index::Search(std::span<const double> query,
                                        size_t k) const {
  return RankNearest(vectors_, ids_, query, k, store_.get(),
                     options_.rescore_factor);
}

}  // namespace colscope::matching
