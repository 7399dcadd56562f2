#ifndef COLSCOPE_CACHE_PIPELINE_CACHE_H_
#define COLSCOPE_CACHE_PIPELINE_CACHE_H_

#include <cstdint>
#include <set>
#include <vector>

#include "cache/artifact_cache.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "embed/encoder.h"
#include "matching/matcher.h"
#include "schema/schema_set.h"
#include "schema/serialize.h"
#include "scoping/collaborative.h"
#include "scoping/signatures.h"

namespace colscope::obs {
class Tracer;
}  // namespace colscope::obs

namespace colscope::cache {

/// Memoizes the pipeline's expensive phase artifacts in an ArtifactCache,
/// keyed by per-source *content* fingerprints so a warm re-run after a
/// schema delta recomputes only what the delta actually dirtied:
///
///   sig       per source: the encoded signature rows. Key: encoder
///             identity + serialize options + the source's serialized
///             element texts. Renaming a source file is a hit (no schema
///             name appears in any serialized text); editing any table,
///             attribute, type, or constraint is a miss for that source
///             only.
///   model     per source: the fitted phase-II local PCA model. Key: the
///             source's content + the explained-variance target + the
///             fit revision (scoping::kLocalModelFitRevision).
///   keep      per source: the phase-III keep-mask slice. Key: the
///             source's content + the full fitted model set + the
///             semantic pipeline options — editing any source refreshes
///             every keep slice (the foreign models changed), which is
///             cheap relative to encoding and fitting.
///   simblock  per unordered source pair: the similarity block (candidate
///             linkages between the two sources). Key: the matcher's
///             BlockCacheId + both sources' content + both sources'
///             actual keep bits — so a recomputed-but-identical keep mask
///             keeps clean-pair blocks hitting, and only blocks touching
///             a dirty source recompute.
///
/// Signature blocks and models, the two large payloads, are stored as a
/// short text header plus raw IEEE-754 doubles (cache/payloads.h): a hit
/// restores the very bits the cold run computed, with no decimal text to
/// parse or print, so a warm run's report is byte-identical to the cold
/// run that populated the cache, at any thread count. The keep slices and
/// similarity blocks are short text. Every decoder accepts only the
/// bytes its encoder writes; anything else is a miss.
///
/// Error contract: Cancelled / DeadlineExceeded from the underlying
/// cache propagate (the run should stop, not grind on); every other
/// cache problem — miss, corruption, unparseable payload, failed write —
/// degrades to recomputation and is never an error.
class PipelineCache {
 public:
  /// Serializes every schema of `set` once (cheap; the texts are needed
  /// anyway) and derives the per-source content fingerprints. `cache`,
  /// `encoder`, and `set` are borrowed and must outlive this object.
  /// `semantic_options_fp` fingerprints the pipeline options that change
  /// artifacts (see SemanticOptionsString in pipeline/pipeline.cc).
  PipelineCache(ArtifactCache* cache, const embed::SentenceEncoder* encoder,
                const schema::SchemaSet& set, uint64_t semantic_options_fp,
                const schema::SerializeOptions& serialize_options = {});

  /// Phase I with per-source memoization. Emits the same
  /// pipeline.serialize / pipeline.embed spans as
  /// scoping::BuildSignatures and returns a byte-identical SignatureSet;
  /// only sources whose rows missed are re-encoded (on `pool` when
  /// non-null).
  Result<scoping::SignatureSet> BuildSignatures(obs::Tracer* tracer,
                                                ThreadPool* pool);

  /// Phase II with per-source memoization: sources whose model hit are
  /// restored (re-stamped to their current index); the rest are fitted by
  /// scoping::FitLocalModelsOf on `pool` (serially when null).
  Result<std::vector<scoping::LocalModel>> FitLocalModels(
      const scoping::SignatureSet& signatures, double explained_variance,
      ThreadPool* pool, const CancellationToken* cancel);

  /// Phase III (fault-free path) with per-source keep-slice memoization.
  /// Sources are assessed serially: their Get/Put order drives LRU
  /// eviction. A non-null `metrics` receives the model-pass counters (a
  /// hit performs no pass).
  Result<std::vector<bool>> AssessAll(
      const scoping::SignatureSet& signatures,
      const std::vector<scoping::LocalModel>& models,
      obs::MetricsRegistry* metrics = nullptr);

  /// Matching with per-source-pair similarity-block memoization. Only
  /// valid for matchers with a non-empty BlockCacheId (the union of
  /// their MatchBlock calls over all unordered pairs equals Match);
  /// returns Unimplemented otherwise and the caller falls back to
  /// matcher.Match.
  Result<std::set<matching::ElementPair>> Match(
      const scoping::SignatureSet& signatures,
      const std::vector<bool>& active, const matching::Matcher& matcher);

  /// Content fingerprint of each source, index-aligned with the set.
  const std::vector<uint64_t>& source_fingerprints() const {
    return source_fps_;
  }

 private:
  CacheKey SigKey(size_t schema) const;
  CacheKey ModelKey(size_t schema, double explained_variance) const;
  CacheKey KeepKey(size_t schema, uint64_t models_fp) const;
  CacheKey SimBlockKey(const matching::Matcher& matcher, size_t schema_a,
                       uint64_t keep_a, size_t schema_b,
                       uint64_t keep_b) const;

  ArtifactCache* cache_;
  const embed::SentenceEncoder* encoder_;
  const schema::SchemaSet* set_;
  uint64_t semantic_options_fp_;
  /// Everything outside the per-source content that still determines the
  /// signature bytes: encoder identity + serialize options.
  uint64_t base_fp_;
  std::vector<std::vector<schema::SerializedElement>> serialized_;
  std::vector<uint64_t> source_fps_;
};

}  // namespace colscope::cache

#endif  // COLSCOPE_CACHE_PIPELINE_CACHE_H_
