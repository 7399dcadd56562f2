#ifndef COLSCOPE_MATCHING_IVF_INDEX_H_
#define COLSCOPE_MATCHING_IVF_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "embed/quantized_store.h"
#include "linalg/matrix.h"
#include "matching/matcher.h"

namespace colscope {
class ThreadPool;
}  // namespace colscope

namespace colscope::matching {

/// Inverted-file (IVF) nearest-neighbour index: the rows are partitioned
/// into `num_lists` cells by k-Means (the coarse quantizer, reusing
/// matching/kmeans), and a query only scans the `nprobe` cells whose
/// centroids are closest — the classic FAISS IndexIVFFlat layout, and
/// the repo's first genuinely sub-linear search path. With
/// num_lists ~ sqrt(n) and a constant nprobe a query touches O(sqrt(n))
/// rows instead of n.
///
/// `nprobe` is the recall knob: nprobe >= num_lists degenerates to the
/// exact flat scan, smaller values trade recall for speed. Probing
/// continues past nprobe (in centroid-distance order) only when the
/// probed cells hold fewer than k rows, so Search never silently
/// returns short results on skewed partitions.
///
/// The probed rows are ranked by RankNearest (matching/flat_index.h),
/// the ranking FlatL2Index uses: (exact distance, id) order, and with
/// `Options::quantized` its int8 prescan to k * rescore_factor rows.
///
/// Deterministic: the coarse quantizer (k-Means seeding, assignment and
/// centroids, see matching/kmeans.h), every distance and every
/// tie-break are fixed by (vectors, Options), so the cells, their
/// centroids and every Search result are bit-identical across runs,
/// machines, SIMD dispatch tables, and whether or not the build ran on
/// a pool, at any thread count.
class IvfIndex {
 public:
  struct Options {
    /// Number of k-Means cells; 0 picks round(sqrt(n)) (at least 1).
    size_t num_lists = 0;
    /// Cells scanned per query, in centroid-distance order.
    size_t nprobe = 8;
    /// Prescan probed cells with the int8 store, rescore exactly.
    bool quantized = false;
    /// Oversampling factor for the quantized rescoring pool.
    size_t rescore_factor = 4;
    uint64_t seed = 0x1f5eed;
  };

  /// Indexes the rows of `vectors` (copied); default options.
  explicit IvfIndex(linalg::Matrix vectors);
  /// With a `pool`, the coarse quantizer's k-Means runs on it (same
  /// cells and centroids as without); construct on the caller thread
  /// only, never inside a task on `pool`.
  IvfIndex(linalg::Matrix vectors, const Options& options,
           ThreadPool* pool = nullptr);

  /// Ids (row indices) of the `k` approximate nearest vectors to
  /// `query`, closest first, scanning Options::nprobe cells.
  std::vector<size_t> Search(std::span<const double> query, size_t k) const;

  /// Same with an explicit nprobe override.
  std::vector<size_t> Search(std::span<const double> query, size_t k,
                             size_t nprobe) const;

  /// Rows a Search for `k` neighbours would scan at `nprobe` — the
  /// sub-linearity measure benches chart against size().
  size_t ProbedRows(std::span<const double> query, size_t k,
                    size_t nprobe) const;

  size_t size() const { return vectors_.rows(); }
  size_t num_lists() const { return lists_.size(); }
  size_t nprobe() const { return options_.nprobe; }
  bool quantized() const { return store_ != nullptr; }

 private:
  /// Cell ids ordered by (centroid distance, id).
  std::vector<size_t> CellOrder(std::span<const double> query) const;
  /// Candidate rows from probing: at least `nprobe` cells, more only
  /// while fewer than `k` rows were collected.
  std::vector<size_t> Probe(std::span<const double> query, size_t k,
                            size_t nprobe) const;

  linalg::Matrix vectors_;
  Options options_;
  /// One row per non-empty cell: the k-Means centroid, which is the
  /// mean of the cell's members.
  linalg::Matrix centroids_;
  /// lists_[c] = ascending row ids assigned to cell c.
  std::vector<std::vector<size_t>> lists_;
  /// Present only in quantized mode.
  std::unique_ptr<embed::QuantizedSignatureStore> store_;
};

/// Matcher over one global IVF index: all active elements are indexed
/// together (unlike LshMatcher's per-schema flat indexes, whose cells
/// would be too small to amortize the coarse quantizer) and every
/// element retrieves an oversampled neighbour pool from which the
/// top_k valid candidates — different schema, same element kind, both
/// active (IsCandidate) — are kept. `num_lists` = 1 degenerates to the
/// exact flat scan, which doubles as the "exact flat" baseline arm in
/// bench/corpus_scale.cc; with auto num_lists and nprobe << num_lists
/// the scan is sub-linear per query.
///
/// `token_prefilter` composes token blocking (matching/token_blocking)
/// in front of the pool: only retrieved neighbours that also share a
/// name token with the query survive — the ER-style cheap-candidate
/// stage feeding expensive refinement.
///
/// Deterministic at any thread count: the index is built on the pool
/// with IvfIndex's bit-identical k-Means, per-query results depend only
/// on (signatures, active, Options), and the per-query result slots are
/// merged in index order, never in completion order.
class IvfMatcher : public Matcher {
 public:
  struct Options {
    /// Valid candidates kept per element.
    size_t top_k = 5;
    /// IvfIndex cells; 0 = auto sqrt, 1 = exact flat scan.
    size_t num_lists = 0;
    size_t nprobe = 8;
    bool quantized = false;
    bool token_prefilter = false;
    uint64_t seed = 0x1f5eed;
  };

  explicit IvfMatcher(const Options& options, ThreadPool* pool = nullptr)
      : options_(options), pool_(pool) {}

  std::string name() const override;
  std::set<ElementPair> Match(const scoping::SignatureSet& signatures,
                              const std::vector<bool>& active) const override;

  const Options& options() const { return options_; }

 private:
  Options options_;
  ThreadPool* pool_;
};

}  // namespace colscope::matching

#endif  // COLSCOPE_MATCHING_IVF_INDEX_H_
