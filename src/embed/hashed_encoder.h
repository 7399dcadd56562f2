#ifndef COLSCOPE_EMBED_HASHED_ENCODER_H_
#define COLSCOPE_EMBED_HASHED_ENCODER_H_

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "embed/encoder.h"
#include "text/lexicon.h"

namespace colscope::embed {

/// Configuration of the lexical-semantic hash encoder.
struct HashedEncoderOptions {
  /// Signature dimensionality. The paper uses Sentence-BERT
  /// all-mpnet-base-v2 with 768 dimensions; we default to the same.
  size_t dims = 768;
  /// Weight of the shared synonym-concept component of a token.
  double concept_weight = 1.0;
  /// Weight of the broader category component (geo, person, time, ...);
  /// produces the weaker "sub-typed" similarity (ADDRESS ~ CITY).
  double category_weight = 0.5;
  /// Total weight of the character-trigram components of a token;
  /// produces graded lexical similarity (ORDERDATE ~ ORDER_DATETIME).
  double trigram_weight = 0.25;
  /// Extra weight multiplier of the first token — the element's own name,
  /// which dominates the semantics of a serialized schema element.
  double leading_token_weight = 2.0;
  /// Weight of the shared anisotropy direction added to every non-empty
  /// embedding, reproducing the narrow-cone geometry of contextual
  /// sentence encoders (all-pairs baseline cosine > 0).
  double common_weight = 0.3;
  /// Weight of a deterministic per-sequence idiosyncratic component
  /// (hashed from the full text). Contextual encoders embed the whole
  /// sequence, so even near-synonymous serializations never coincide;
  /// this term reproduces that sentence-level jitter.
  double idiosyncrasy_weight = 0.0;
  /// Seed mixed into every hashed basis vector.
  uint64_t seed = 0x5c09e5eedULL;
};

/// Deterministic substitute for the pretrained Sentence-BERT encoder
/// (see DESIGN.md, Substitution 1). Every token contributes the sum of a
/// concept vector, a category vector, and character-trigram vectors; the
/// sequence embedding is the mean over token vectors (mirroring SBERT's
/// average pooling), L2-normalized. Basis vectors are unit Gaussian
/// directions derived from a hash of the label, so any two distinct
/// labels are nearly orthogonal in 768 dimensions.
///
/// Thread-safe; the internal basis-vector cache takes a shared (reader)
/// lock on the hit path, so concurrent EncodeAll workers only serialize
/// on the rare miss that actually inserts a new basis vector.
class HashedLexiconEncoder : public SentenceEncoder {
 public:
  /// Uses text::DefaultSchemaLexicon().
  explicit HashedLexiconEncoder(HashedEncoderOptions options = {});
  /// Uses a caller-provided lexicon (kept by copy).
  HashedLexiconEncoder(HashedEncoderOptions options, text::Lexicon lexicon);

  linalg::Vector Encode(std::string_view text) const override;
  size_t dims() const override { return options_.dims; }
  /// Covers every option that changes an embedding (weights, seed, dims,
  /// lexicon) so cached signatures are invalidated by any encoder
  /// retuning. Rendered once at construction: the options and lexicon
  /// never change afterwards, and a warm request should not re-sort and
  /// re-hash the lexicon.
  std::string CacheIdentity() const override;

  const HashedEncoderOptions& options() const { return options_; }

 private:
  /// Unit Gaussian direction for `label` (cached).
  const linalg::Vector& BasisVector(const std::string& label) const;

  HashedEncoderOptions options_;
  text::Lexicon lexicon_;
  std::string cache_identity_;
  mutable std::shared_mutex mu_;
  mutable std::unordered_map<std::string, linalg::Vector> basis_cache_;
};

}  // namespace colscope::embed

#endif  // COLSCOPE_EMBED_HASHED_ENCODER_H_
