#include "matching/token_blocking.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "embed/quantized_store.h"
#include "linalg/stats.h"
#include "text/tokenize.h"

namespace colscope::matching {

namespace {

std::string LeadingName(const std::string& serialized) {
  const size_t space = serialized.find(' ');
  return space == std::string::npos ? serialized
                                    : serialized.substr(0, space);
}

}  // namespace

/// Inverted index token -> active rows whose NAME contains it, and the
/// deduplicated candidate pair set it induces.
std::set<std::pair<size_t, size_t>> TokenBlockingCandidates(
    const scoping::SignatureSet& signatures,
    const std::vector<bool>& active) {
  std::map<std::string, std::vector<size_t>> index;
  for (size_t i = 0; i < signatures.size(); ++i) {
    if (!active[i]) continue;
    for (const std::string& token :
         text::TokenizeIdentifier(LeadingName(signatures.texts[i]))) {
      index[token].push_back(i);
    }
  }
  std::set<std::pair<size_t, size_t>> candidates;
  for (const auto& [token, rows] : index) {
    for (size_t a = 0; a < rows.size(); ++a) {
      for (size_t b = a + 1; b < rows.size(); ++b) {
        if (!IsCandidate(signatures, active, rows[a], rows[b])) continue;
        candidates.insert({std::min(rows[a], rows[b]),
                           std::max(rows[a], rows[b])});
      }
    }
  }
  return candidates;
}

std::string TokenBlockedSimMatcher::name() const {
  return StrFormat("TBSIM(%.1f)", threshold_);
}

std::set<ElementPair> TokenBlockedSimMatcher::Match(
    const scoping::SignatureSet& signatures,
    const std::vector<bool>& active) const {
  const auto candidates = TokenBlockingCandidates(signatures, active);
  std::unique_ptr<embed::QuantizedSignatureStore> store;
  if (quantized_ && !candidates.empty()) {
    store = std::make_unique<embed::QuantizedSignatureStore>(
        signatures.signatures);
  }
  // Each candidate row's norm once; a pair then costs one Dot. The
  // norms are also the prefilter's: linalg::Norm is sqrt of the same
  // canonical dot the store keeps as RowNorm2.
  std::vector<double> norms(signatures.size(), 0.0);
  for (size_t r = 0; r < signatures.size(); ++r) {
    if (active[r]) norms[r] = linalg::Norm(signatures.signatures.RowSpan(r));
  }
  std::set<ElementPair> out;
  for (const auto& [i, j] : candidates) {
    const double ni = norms[i];
    const double nj = norms[j];
    if (store != nullptr && ni > 0.0 && nj > 0.0) {
      // approx_cos + bound/(|a||b|) >= exact cosine, so dropping below
      // the threshold can never drop a true match. Zero-norm rows fall
      // through to the (cheap) exact path rather than special-casing
      // its sign conventions here.
      const double inv = 1.0 / (ni * nj);
      const double approx_cos = store->ApproxDot(i, j) * inv;
      const double margin =
          store->DotErrorBound(i, store->RowScale(j), store->RowL1(j)) * inv;
      if (approx_cos + margin < threshold_) continue;
    }
    const double sim = linalg::CosineFromDot(
        linalg::Dot(signatures.signatures.RowSpan(i),
                    signatures.signatures.RowSpan(j)),
        ni, nj);
    if (sim >= threshold_) {
      out.insert(MakePair(signatures.refs[i], signatures.refs[j]));
    }
  }
  return out;
}

size_t TokenBlockedSimMatcher::CandidateCount(
    const scoping::SignatureSet& signatures,
    const std::vector<bool>& active) {
  return TokenBlockingCandidates(signatures, active).size();
}

}  // namespace colscope::matching
