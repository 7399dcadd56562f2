#ifndef COLSCOPE_DATASETS_SYNTHETIC_H_
#define COLSCOPE_DATASETS_SYNTHETIC_H_

#include <cstdint>

#include "datasets/linkage.h"

namespace colscope::datasets {

/// Parameters of the synthetic multi-source generator. The generator
/// produces `num_schemas` schemas that share `shared_concepts`
/// attribute-level concepts (spelled with per-schema synonym aliases, so
/// linkages are a mix of inter-identical and inter-sub-typed) and carry
/// `private_per_schema` unlinkable attributes drawn from disjoint
/// domain vocabularies. Varying `private_per_schema` sweeps the
/// unlinkable overhead — the heterogeneity axis of the paper's OC3 vs
/// OC3-FO comparison — at arbitrary scale.
///
/// This is the generator of EXPERIMENTS.md's unlinkable-overhead sweep
/// (`bench/ablation_overhead`), and the only one that holds the linkable
/// core fixed while it adds private elements: `synthetic_corpus`'s
/// dropout replaces shared concepts, so its overhead and its linkable
/// core move together. That is why it stays beside `synthetic_corpus`.
struct SyntheticOptions {
  size_t num_schemas = 3;
  /// Cross-schema attribute concepts; capped at the built-in vocabulary
  /// size (see SyntheticVocabularySize()).
  size_t shared_concepts = 12;
  /// Unlinkable attributes per schema.
  size_t private_per_schema = 8;
  /// Probability that a schema spells a shared concept with a synonym
  /// alias instead of the canonical name (creates IS linkages).
  double alias_probability = 0.5;
  /// Probability that a schema omits a shared concept entirely (concept
  /// coverage is then partial, like real multi-source sets).
  double dropout_probability = 0.1;
  uint64_t seed = 0x5e7;
};

/// Number of shared attribute concepts the built-in vocabulary supports.
size_t SyntheticVocabularySize();

/// Generates a deterministic synthetic matching scenario with full
/// ground-truth annotation (every co-occurring shared concept is
/// annotated pairwise, tables included).
MatchingScenario BuildSyntheticScenario(const SyntheticOptions& options);

}  // namespace colscope::datasets

#endif  // COLSCOPE_DATASETS_SYNTHETIC_H_
