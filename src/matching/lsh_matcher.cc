#include "matching/lsh_matcher.h"

#include <span>

#include "common/strings.h"
#include "matching/flat_index.h"

namespace colscope::matching {

std::string LshMatcher::name() const {
  return StrFormat("LSH(%zu)", top_k_);
}

std::set<ElementPair> LshMatcher::Match(
    const scoping::SignatureSet& signatures,
    const std::vector<bool>& active) const {
  std::set<ElementPair> out;

  int max_schema = -1;
  for (const auto& ref : signatures.refs) {
    max_schema = std::max(max_schema, ref.schema);
  }

  // Active rows per schema.
  std::vector<std::vector<size_t>> schema_rows(max_schema + 1);
  for (size_t i = 0; i < signatures.size(); ++i) {
    if (active[i]) schema_rows[signatures.refs[i].schema].push_back(i);
  }

  for (int target = 0; target <= max_schema; ++target) {
    const auto& target_rows = schema_rows[target];
    if (target_rows.empty()) continue;
    const FlatL2Index index(
        linalg::GatherRows(signatures.signatures, target_rows),
        FlatL2Index::Options{.quantized = quantized_});

    for (int source = 0; source <= max_schema; ++source) {
      if (source == target) continue;
      for (size_t query_row : schema_rows[source]) {
        const std::span<const double> query =
            signatures.signatures.RowSpan(query_row);
        for (size_t hit : index.Search(query, top_k_)) {
          const size_t hit_row = target_rows[hit];
          if (!IsCandidate(signatures, active, query_row, hit_row)) continue;
          out.insert(
              MakePair(signatures.refs[query_row], signatures.refs[hit_row]));
        }
      }
    }
  }
  return out;
}

}  // namespace colscope::matching
