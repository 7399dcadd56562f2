#include "embed/hashed_encoder.h"

#include <cmath>
#include <mutex>

#include "common/rng.h"
#include "common/strings.h"
#include "linalg/stats.h"
#include "text/hashing.h"
#include "text/tokenize.h"

namespace colscope::embed {

namespace {

std::string IdentityOf(const HashedEncoderOptions& options,
                       const text::Lexicon& lexicon) {
  // %.17g keeps the rendering bijective with the double values, so two
  // configs differing in any weight cannot share a cache identity.
  return StrFormat(
      "hashed-lexicon:dims=%zu,concept=%.17g,category=%.17g,trigram=%.17g,"
      "leading=%.17g,common=%.17g,idio=%.17g,seed=%llu,lexicon=%llx",
      options.dims, options.concept_weight, options.category_weight,
      options.trigram_weight, options.leading_token_weight,
      options.common_weight, options.idiosyncrasy_weight,
      static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(lexicon.Fingerprint()));
}

}  // namespace

HashedLexiconEncoder::HashedLexiconEncoder(HashedEncoderOptions options)
    : HashedLexiconEncoder(options, text::DefaultSchemaLexicon()) {}

HashedLexiconEncoder::HashedLexiconEncoder(HashedEncoderOptions options,
                                           text::Lexicon lexicon)
    : options_(options),
      lexicon_(std::move(lexicon)),
      cache_identity_(IdentityOf(options_, lexicon_)) {}

std::string HashedLexiconEncoder::CacheIdentity() const {
  return cache_identity_;
}

const linalg::Vector& HashedLexiconEncoder::BasisVector(
    const std::string& label) const {
  // Hit path: shared lock only. Returning a reference is safe because
  // unordered_map insertion never invalidates references to existing
  // elements and entries are never erased.
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = basis_cache_.find(label);
    if (it != basis_cache_.end()) return it->second;
  }

  // Miss: derive the vector outside any lock (it depends only on the
  // label), then insert under the writer lock. A concurrent thread may
  // have inserted the same label meanwhile; emplace keeps the first.
  Rng rng(text::HashCombine(text::Hash64(label), options_.seed));
  linalg::Vector v(options_.dims);
  for (double& x : v) x = rng.NextGaussian();
  linalg::NormalizeInPlace(v);
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [inserted, _] = basis_cache_.emplace(label, std::move(v));
  return inserted->second;
}

linalg::Vector HashedLexiconEncoder::Encode(std::string_view textseq) const {
  linalg::Vector out(options_.dims, 0.0);
  const std::vector<std::string> tokens = text::TokenizeIdentifier(textseq);
  if (tokens.empty()) return out;

  double weight_total = 0.0;
  for (size_t t = 0; t < tokens.size(); ++t) {
    const std::string& token = tokens[t];
    const text::TokenSense sense = lexicon_.Lookup(token);
    // The leading token is the element's own name (T^a/T^t put it first);
    // pretrained sentence encoders likewise weight the head noun heavily.
    const double token_weight =
        (t == 0) ? options_.leading_token_weight : 1.0;
    weight_total += token_weight;

    const linalg::Vector& concept_vec = BasisVector("c:" + sense.concept_name);
    const double cw = token_weight * options_.concept_weight;
    for (size_t i = 0; i < out.size(); ++i) out[i] += cw * concept_vec[i];

    if (!sense.category.empty()) {
      const linalg::Vector& cat_vec = BasisVector("k:" + sense.category);
      const double kw = token_weight * options_.category_weight;
      for (size_t i = 0; i < out.size(); ++i) out[i] += kw * cat_vec[i];
    }

    const std::vector<std::string> grams = text::CharacterTrigrams(token);
    if (!grams.empty() && options_.trigram_weight > 0.0) {
      const double w = token_weight * options_.trigram_weight /
                       static_cast<double>(grams.size());
      for (const std::string& gram : grams) {
        const linalg::Vector& gram_vec = BasisVector("g:" + gram);
        for (size_t i = 0; i < out.size(); ++i) out[i] += w * gram_vec[i];
      }
    }
  }

  // Mean pooling over tokens (as in SBERT), ...
  const double inv = 1.0 / weight_total;
  for (double& x : out) x *= inv;
  // ... plus the shared anisotropy direction: contextual sentence
  // embeddings occupy a narrow cone (all-pairs baseline cosine well above
  // zero); collaborative scoping's cross-schema reconstruction relies on
  // that common structure, so the substitute reproduces it explicitly.
  if (options_.common_weight > 0.0) {
    const linalg::Vector& common = BasisVector("common");
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += options_.common_weight * common[i];
    }
  }
  // Sequence-level idiosyncrasy: a deterministic pseudo-random direction
  // keyed by the full text, uncached (each distinct sequence appears a
  // handful of times per run).
  if (options_.idiosyncrasy_weight > 0.0) {
    Rng rng(text::HashCombine(text::Hash64(textseq),
                              options_.seed ^ 0x1d105123ULL));
    for (double& x : out) {
      x += options_.idiosyncrasy_weight * rng.NextGaussian() /
           std::sqrt(static_cast<double>(options_.dims));
    }
  }
  // Unit-normalize so cosine and L2 geometry agree downstream.
  linalg::NormalizeInPlace(out);
  return out;
}

}  // namespace colscope::embed
