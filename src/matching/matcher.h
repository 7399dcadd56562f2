#ifndef COLSCOPE_MATCHING_MATCHER_H_
#define COLSCOPE_MATCHING_MATCHER_H_

#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "scoping/signatures.h"

namespace colscope {
class ThreadPool;
}  // namespace colscope

namespace colscope::matching {

/// An unordered candidate linkage between two schema elements,
/// canonicalized so first < second.
using ElementPair = std::pair<schema::ElementRef, schema::ElementRef>;

/// Canonicalizes an element pair (smaller ref first).
ElementPair MakePair(schema::ElementRef a, schema::ElementRef b);

/// A matching algorithm A of Section 4.1: given the signature set and an
/// active-element mask (true = element participates, i.e. survived
/// scoping; pass all-true for the unscoped SOTA baseline), generates
/// candidate linkages. Implementations only pair elements of the same
/// kind (table-table / attribute-attribute) across different schemas,
/// mirroring the ground-truth structure of Section 2.1.
class Matcher {
 public:
  virtual ~Matcher() = default;

  virtual std::string name() const = 0;

  virtual std::set<ElementPair> Match(
      const scoping::SignatureSet& signatures,
      const std::vector<bool>& active) const = 0;

  /// Identity of this matcher's block decomposition for content-addressed
  /// caching (see cache/pipeline_cache.h): a canonical string covering
  /// every parameter that changes MatchBlock output. Empty — the default
  /// — means the matcher does not decompose into independent per-source-
  /// pair blocks and must run via Match().
  virtual std::string BlockCacheId() const { return ""; }

  /// Candidate linkages restricted to pairs with one element in
  /// `schema_a` and the other in `schema_b`. Matchers with a non-empty
  /// BlockCacheId must guarantee that the union of MatchBlock over all
  /// unordered schema pairs equals Match() for the same inputs; the
  /// default returns the empty set (unsupported).
  virtual std::set<ElementPair> MatchBlock(
      const scoping::SignatureSet& signatures,
      const std::vector<bool>& active, int schema_a, int schema_b) const;
};

/// True if rows i and j may form a candidate: both active, different
/// schemas, same element kind.
bool IsCandidate(const scoping::SignatureSet& signatures,
                 const std::vector<bool>& active, size_t i, size_t j);

/// A matcher by name, with the CLI flags' parameter defaults; the cold
/// CLI and colscoped both build their matcher from one.
struct MatcherSpec {
  std::string name = "sim";  ///< sim|cluster|lsh|tbsim|str|ivf.
  double param = -1.0;       ///< < 0 = the matcher's default.
  /// IvfMatcher::Options knobs; quantized also applies to lsh and tbsim.
  size_t nprobe = 8;
  size_t num_lists = 0;
  bool quantized = false;
  bool token_prefilter = false;
};

/// The named matcher, or null for an unknown name. `pool` (may be null)
/// parallelizes the matchers that support it without changing output.
std::unique_ptr<Matcher> MakeMatcher(const MatcherSpec& spec,
                                     ThreadPool* pool = nullptr);

}  // namespace colscope::matching

#endif  // COLSCOPE_MATCHING_MATCHER_H_
