#include "matching/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "linalg/stats.h"
#include "matching/flat_index.h"
#include "matching/kmeans.h"
#include "matching/token_blocking.h"

namespace colscope::matching {

namespace {

/// Neighbour-pool oversampling of IvfMatcher: each element retrieves
/// top_k * this + 1 neighbours (the +1 absorbs the self hit) so that
/// invalid hits — same schema, other element kind — can be filtered out
/// without starving the valid candidate list.
constexpr size_t kPoolOversample = 4;

/// Lloyd iterations of the coarse quantizer. With at least one, the
/// k-Means centroids are the means of the final cells.
constexpr int kQuantizerIterations = 25;

}  // namespace

IvfIndex::IvfIndex(linalg::Matrix vectors)
    : IvfIndex(std::move(vectors), Options()) {}

IvfIndex::IvfIndex(linalg::Matrix vectors, const Options& options,
                   ThreadPool* pool)
    : vectors_(std::move(vectors)), options_(options) {
  const size_t n = vectors_.rows();
  if (n == 0) return;
  size_t num_lists = options_.num_lists;
  if (num_lists == 0) {
    num_lists = static_cast<size_t>(
        std::lround(std::sqrt(static_cast<double>(n))));
  }
  num_lists = std::clamp<size_t>(num_lists, 1, n);

  KMeansOptions kmeans;
  kmeans.k = num_lists;
  kmeans.max_iterations = kQuantizerIterations;
  kmeans.seed = options_.seed;
  const KMeansResult quantizer = KMeansCluster(vectors_, kmeans, pool);

  // Bucket rows per cell (ascending ids by construction), then drop
  // empty cells so centroids_ row c always describes lists_[c].
  std::vector<std::vector<size_t>> cells(num_lists);
  for (size_t i = 0; i < n; ++i) {
    COLSCOPE_CHECK(quantizer.assignment[i] < num_lists);
    cells[quantizer.assignment[i]].push_back(i);
  }
  size_t non_empty = 0;
  for (const auto& cell : cells) non_empty += cell.empty() ? 0 : 1;
  centroids_ = linalg::Matrix(non_empty, vectors_.cols());
  lists_.reserve(non_empty);
  for (size_t c = 0; c < num_lists; ++c) {
    if (cells[c].empty()) continue;
    std::copy_n(quantizer.centroids.RowPtr(c), vectors_.cols(),
                centroids_.RowPtr(lists_.size()));
    lists_.push_back(std::move(cells[c]));
  }

  if (options_.quantized) {
    store_ = std::make_unique<embed::QuantizedSignatureStore>(vectors_);
  }
}

std::vector<size_t> IvfIndex::CellOrder(std::span<const double> query) const {
  // (centroid distance, cell id) pairs; pair ordering is exactly the
  // deterministic tie-break every index in this repo uses.
  std::vector<std::pair<double, size_t>> order;
  order.reserve(lists_.size());
  for (size_t c = 0; c < lists_.size(); ++c) {
    order.emplace_back(
        linalg::SquaredL2Distance(centroids_.RowSpan(c), query), c);
  }
  std::sort(order.begin(), order.end());
  std::vector<size_t> cells;
  cells.reserve(order.size());
  for (const auto& entry : order) cells.push_back(entry.second);
  return cells;
}

std::vector<size_t> IvfIndex::Probe(std::span<const double> query, size_t k,
                                    size_t nprobe) const {
  const std::vector<size_t> cells = CellOrder(query);
  const size_t min_cells = std::max<size_t>(nprobe, 1);
  std::vector<size_t> rows;
  size_t probed = 0;
  for (size_t c : cells) {
    // Keep probing past nprobe (still in centroid-distance order) only
    // while the pool cannot yet satisfy k — skewed partitions must not
    // silently shorten results.
    if (probed >= min_cells && rows.size() >= k) break;
    rows.insert(rows.end(), lists_[c].begin(), lists_[c].end());
    ++probed;
  }
  return rows;
}

std::vector<size_t> IvfIndex::Search(std::span<const double> query,
                                     size_t k) const {
  return Search(query, k, options_.nprobe);
}

std::vector<size_t> IvfIndex::Search(std::span<const double> query, size_t k,
                                     size_t nprobe) const {
  if (vectors_.rows() == 0 || k == 0) return {};
  return RankNearest(vectors_, Probe(query, k, nprobe), query, k,
                     store_.get(), options_.rescore_factor);
}

size_t IvfIndex::ProbedRows(std::span<const double> query, size_t k,
                            size_t nprobe) const {
  if (vectors_.rows() == 0) return 0;
  return Probe(query, k, nprobe).size();
}

std::string IvfMatcher::name() const {
  return StrFormat("IVF(k=%zu,nprobe=%zu%s%s)", options_.top_k,
                   options_.nprobe, options_.quantized ? ",int8" : "",
                   options_.token_prefilter ? ",tb" : "");
}

std::set<ElementPair> IvfMatcher::Match(
    const scoping::SignatureSet& signatures,
    const std::vector<bool>& active) const {
  std::vector<size_t> rows;
  for (size_t i = 0; i < signatures.size(); ++i) {
    if (active[i]) rows.push_back(i);
  }
  if (rows.size() < 2) return {};

  IvfIndex::Options index_options;
  index_options.num_lists = options_.num_lists;
  index_options.nprobe = options_.nprobe;
  index_options.quantized = options_.quantized;
  index_options.seed = options_.seed;
  const IvfIndex index(linalg::GatherRows(signatures.signatures, rows),
                       index_options, pool_);

  std::set<std::pair<size_t, size_t>> allowed;
  if (options_.token_prefilter) {
    allowed = TokenBlockingCandidates(signatures, active);
  }

  const size_t fetch =
      std::min(rows.size(), options_.top_k * kPoolOversample + 1);
  std::vector<std::vector<ElementPair>> slots(rows.size());
  const std::function<void(size_t)> task = [&](size_t qi) {
    const size_t i = rows[qi];
    const std::vector<size_t> hits =
        index.Search(signatures.signatures.RowSpan(i), fetch);
    std::vector<ElementPair>& out = slots[qi];
    for (size_t h : hits) {
      if (out.size() >= options_.top_k) break;
      const size_t j = rows[h];
      if (j == i) continue;
      if (!IsCandidate(signatures, active, i, j)) continue;
      if (options_.token_prefilter &&
          allowed.find({std::min(i, j), std::max(i, j)}) == allowed.end()) {
        continue;
      }
      out.push_back(MakePair(signatures.refs[i], signatures.refs[j]));
    }
  };
  if (pool_ != nullptr) {
    COLSCOPE_CHECK(pool_->ParallelFor(rows.size(), task).ok());
  } else {
    for (size_t qi = 0; qi < rows.size(); ++qi) task(qi);
  }

  // Index-order merge: identical at any thread count.
  std::set<ElementPair> out;
  for (const std::vector<ElementPair>& slot : slots) {
    out.insert(slot.begin(), slot.end());
  }
  return out;
}

}  // namespace colscope::matching
