#ifndef COLSCOPE_MATCHING_LSH_MATCHER_H_
#define COLSCOPE_MATCHING_LSH_MATCHER_H_

#include "matching/matcher.h"

namespace colscope::matching {

/// LSH "semantic blocking" (Meduri et al.): builds a FlatL2 index per
/// schema (as the paper does with FAISS IndexFlatL2) and, for every
/// directed schema pair, retrieves the top-k nearest signatures of each
/// element in the other schema. The union over directions forms the
/// candidate set. The paper evaluates top-k in {1, 5, 20}.
///
/// Set `quantized` to rank flat-search candidates with the int8
/// signature store before exact rescoring (`--quantized`).
class LshMatcher : public Matcher {
 public:
  explicit LshMatcher(size_t top_k, bool quantized = false)
      : top_k_(top_k), quantized_(quantized) {}

  std::string name() const override;
  std::set<ElementPair> Match(const scoping::SignatureSet& signatures,
                              const std::vector<bool>& active) const override;

  size_t top_k() const { return top_k_; }

 private:
  size_t top_k_;
  bool quantized_;
};

}  // namespace colscope::matching

#endif  // COLSCOPE_MATCHING_LSH_MATCHER_H_
