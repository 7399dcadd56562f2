#include "matching/flat_index.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "common/rng.h"
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
      ranked.emplace_back(
          store->ApproxSquaredL2(id, q.codes.data(), q.scale, q.norm2), id);
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

RandomHyperplaneLsh::RandomHyperplaneLsh(linalg::Matrix vectors,
                                         Options options)
    : vectors_(std::move(vectors)), options_(options) {
  Rng rng(options_.seed);
  const size_t d = vectors_.cols();
  hyperplanes_.reserve(options_.num_tables);
  buckets_.resize(options_.num_tables);
  for (size_t t = 0; t < options_.num_tables; ++t) {
    linalg::Matrix planes(options_.num_bits, d);
    for (double& v : planes.data()) v = rng.NextGaussian();
    hyperplanes_.push_back(std::move(planes));
  }
  for (size_t t = 0; t < options_.num_tables; ++t) {
    auto& bucket = buckets_[t];
    bucket.reserve(vectors_.rows());
    for (size_t i = 0; i < vectors_.rows(); ++i) {
      bucket.emplace_back(HashVector(vectors_.RowSpan(i), t), i);
    }
    std::sort(bucket.begin(), bucket.end());
  }
}

uint64_t RandomHyperplaneLsh::HashVector(std::span<const double> v,
                                         size_t table) const {
  const linalg::Matrix& planes = hyperplanes_[table];
  uint64_t hash = 0;
  for (size_t b = 0; b < planes.rows(); ++b) {
    double dot = 0.0;
    const double* row = planes.RowPtr(b);
    for (size_t c = 0; c < v.size(); ++c) dot += row[c] * v[c];
    hash = (hash << 1) | (dot >= 0.0 ? 1u : 0u);
  }
  return hash;
}

std::vector<size_t> RandomHyperplaneLsh::Search(
    std::span<const double> query, size_t k) const {
  std::set<size_t> candidates;
  for (size_t t = 0; t < options_.num_tables; ++t) {
    const uint64_t hash = HashVector(query, t);
    const auto& bucket = buckets_[t];
    auto it = std::lower_bound(bucket.begin(), bucket.end(),
                               std::make_pair(hash, size_t{0}));
    for (; it != bucket.end() && it->first == hash; ++it) {
      candidates.insert(it->second);
    }
  }
  if (candidates.size() < k) {
    // Too few collisions: degrade to exact search for stable recall.
    for (size_t i = 0; i < vectors_.rows(); ++i) candidates.insert(i);
  }
  const std::vector<size_t> ids(candidates.begin(), candidates.end());
  return RankNearest(vectors_, ids, query, k, /*store=*/nullptr,
                     /*rescore_factor=*/1);
}

}  // namespace colscope::matching
