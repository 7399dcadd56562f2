#ifndef COLSCOPE_MATCHING_FLAT_INDEX_H_
#define COLSCOPE_MATCHING_FLAT_INDEX_H_

#include <memory>
#include <span>
#include <vector>

#include "embed/quantized_store.h"
#include "linalg/matrix.h"

namespace colscope::matching {

/// The one k-NN ranking both indexes in this library share (FlatL2Index
/// and IvfIndex): the ids of the min(k, |candidates|)
/// `candidates` (distinct row ids of `vectors`, in any order) nearest to
/// `query`, ordered by (exact squared L2 distance, id) — equal distances
/// rank the lower id first.
///
/// With a non-null `store` (an int8 QuantizedSignatureStore over the same
/// rows) and more candidates than k, an approximate prescan first keeps
/// the k * max(rescore_factor, 1) candidates with the smallest
/// (approximate distance, id); only those are rescored exactly. The final
/// order always comes from the exact double-precision distances, so
/// quantization can only affect which candidates reach the rescoring,
/// never how they rank.
std::vector<size_t> RankNearest(const linalg::Matrix& vectors,
                                std::span<const size_t> candidates,
                                std::span<const double> query, size_t k,
                                const embed::QuantizedSignatureStore* store,
                                size_t rescore_factor);

/// Exact L2 nearest-neighbour index over a fixed set of vectors — the
/// equivalent of FAISS IndexFlatL2 that the paper's "LSH" matcher builds
/// per schema (Section 4.1). Brute-force search: RankNearest over every
/// row; exact by construction.
///
/// With `Options::quantized` the scan runs RankNearest's int8 prescan
/// (`--quantized`); the default remains byte-for-byte the exact scan.
class FlatL2Index {
 public:
  struct Options {
    /// Rank with int8 approximate distances, rescore exactly.
    bool quantized = false;
    /// Oversampling factor for the rescoring pool: the approximate pass
    /// keeps k * rescore_factor candidates before exact rescoring.
    size_t rescore_factor = 4;
  };

  /// Indexes the rows of `vectors` (copied); exact scan by default.
  explicit FlatL2Index(linalg::Matrix vectors);
  FlatL2Index(linalg::Matrix vectors, Options options);

  /// Ids (row indices) of the `k` nearest vectors to `query`, closest
  /// first; fewer if the index holds fewer than k vectors.
  std::vector<size_t> Search(std::span<const double> query, size_t k) const;

  size_t size() const { return vectors_.rows(); }
  bool quantized() const { return store_ != nullptr; }

 private:
  linalg::Matrix vectors_;
  Options options_;
  /// 0..size()-1: every row is a candidate.
  std::vector<size_t> ids_;
  /// Present only in quantized mode.
  std::unique_ptr<embed::QuantizedSignatureStore> store_;
};

}  // namespace colscope::matching

#endif  // COLSCOPE_MATCHING_FLAT_INDEX_H_
