#include "er/record_scoping.h"

#include <algorithm>

#include "matching/flat_index.h"
#include "scoping/collaborative.h"

namespace colscope::er {

std::vector<size_t> RecordSignatureSet::RowsOfSource(int source) const {
  std::vector<size_t> rows;
  for (size_t i = 0; i < refs.size(); ++i) {
    if (refs[i].source == source) rows.push_back(i);
  }
  return rows;
}

linalg::Matrix RecordSignatureSet::SourceSignatures(int source) const {
  return linalg::GatherRows(signatures, RowsOfSource(source));
}

RecordSignatureSet BuildRecordSignatures(
    const std::vector<EntitySet>& sources,
    const embed::SentenceEncoder& encoder) {
  RecordSignatureSet out;
  for (size_t s = 0; s < sources.size(); ++s) {
    for (size_t r = 0; r < sources[s].records().size(); ++r) {
      out.refs.push_back({static_cast<int>(s), static_cast<int>(r)});
      out.texts.push_back(SerializeRecord(sources[s].records()[r]));
    }
  }
  out.signatures = encoder.EncodeAll(out.texts);
  return out;
}

Result<std::vector<bool>> CollaborativeRecordScoping(
    const RecordSignatureSet& signatures, size_t num_sources, double v) {
  // Phase II: one local model per source (reusing the schema-level
  // LocalModel — it operates on signature matrices).
  std::vector<scoping::LocalModel> models;
  models.reserve(num_sources);
  for (size_t s = 0; s < num_sources; ++s) {
    Result<scoping::LocalModel> model = scoping::LocalModel::Fit(
        signatures.SourceSignatures(static_cast<int>(s)), v,
        static_cast<int>(s));
    if (!model.ok()) return model.status();
    models.push_back(std::move(model).value());
  }
  // Phase III.
  std::vector<bool> keep(signatures.size(), false);
  for (size_t s = 0; s < num_sources; ++s) {
    const int source = static_cast<int>(s);
    const auto rows = signatures.RowsOfSource(source);
    const linalg::Matrix local = signatures.SourceSignatures(source);
    const auto linkable =
        scoping::AssessLinkability(local, source, models);
    for (size_t i = 0; i < rows.size(); ++i) keep[rows[i]] = linkable[i];
  }
  return keep;
}

std::set<RecordPair> BlockTopK(const RecordSignatureSet& signatures,
                               const std::vector<bool>& active,
                               size_t top_k) {
  std::set<RecordPair> out;
  int max_source = -1;
  for (const RecordRef& ref : signatures.refs) {
    max_source = std::max(max_source, ref.source);
  }
  // Active rows per source.
  std::vector<std::vector<size_t>> source_rows(max_source + 1);
  for (size_t i = 0; i < signatures.size(); ++i) {
    if (active[i]) source_rows[signatures.refs[i].source].push_back(i);
  }
  for (int target = 0; target <= max_source; ++target) {
    const auto& target_rows = source_rows[target];
    if (target_rows.empty()) continue;
    const matching::FlatL2Index index(
        linalg::GatherRows(signatures.signatures, target_rows));
    for (int source = 0; source <= max_source; ++source) {
      if (source == target) continue;
      for (size_t query_row : source_rows[source]) {
        for (size_t hit :
             index.Search(signatures.signatures.RowSpan(query_row), top_k)) {
          RecordRef a = signatures.refs[query_row];
          RecordRef b = signatures.refs[target_rows[hit]];
          if (b < a) std::swap(a, b);
          out.insert({a, b});
        }
      }
    }
  }
  return out;
}

}  // namespace colscope::er
