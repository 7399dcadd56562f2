#include "matching/matcher.h"

#include "matching/cluster_matcher.h"
#include "matching/ivf_index.h"
#include "matching/lsh_matcher.h"
#include "matching/sim.h"
#include "matching/string_matcher.h"
#include "matching/token_blocking.h"

namespace colscope::matching {

std::set<ElementPair> Matcher::MatchBlock(
    const scoping::SignatureSet& signatures, const std::vector<bool>& active,
    int schema_a, int schema_b) const {
  (void)signatures;
  (void)active;
  (void)schema_a;
  (void)schema_b;
  return {};
}

ElementPair MakePair(schema::ElementRef a, schema::ElementRef b) {
  if (b < a) std::swap(a, b);
  return {a, b};
}

bool IsCandidate(const scoping::SignatureSet& signatures,
                 const std::vector<bool>& active, size_t i, size_t j) {
  if (!active[i] || !active[j]) return false;
  const schema::ElementRef& a = signatures.refs[i];
  const schema::ElementRef& b = signatures.refs[j];
  return a.schema != b.schema && a.is_table() == b.is_table();
}

std::unique_ptr<Matcher> MakeMatcher(const MatcherSpec& spec,
                                     ThreadPool* pool) {
  if (spec.name == "sim") {
    return std::make_unique<SimMatcher>(spec.param >= 0 ? spec.param : 0.6,
                                        pool);
  }
  if (spec.name == "cluster") {
    return std::make_unique<ClusterMatcher>(
        spec.param >= 0 ? static_cast<size_t>(spec.param) : 5);
  }
  if (spec.name == "lsh") {
    return std::make_unique<LshMatcher>(
        spec.param >= 0 ? static_cast<size_t>(spec.param) : 1,
        spec.quantized);
  }
  if (spec.name == "tbsim") {
    return std::make_unique<TokenBlockedSimMatcher>(
        spec.param >= 0 ? spec.param : 0.6, spec.quantized);
  }
  if (spec.name == "str") {
    return std::make_unique<StringSimilarityMatcher>(
        StringSimilarityMatcher::Measure::kJaroWinkler,
        spec.param >= 0 ? spec.param : 0.9);
  }
  if (spec.name == "ivf") {
    IvfMatcher::Options options;
    options.top_k = spec.param >= 0 ? static_cast<size_t>(spec.param) : 5;
    options.num_lists = spec.num_lists;
    options.nprobe = spec.nprobe;
    options.quantized = spec.quantized;
    options.token_prefilter = spec.token_prefilter;
    return std::make_unique<IvfMatcher>(options, pool);
  }
  return nullptr;
}

}  // namespace colscope::matching
