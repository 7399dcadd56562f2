#include "scoping/signatures.h"

#include "obs/trace.h"
#include "schema/serialize.h"

namespace colscope::scoping {

std::vector<size_t> SignatureSet::RowsOfSchema(int schema_index) const {
  std::vector<size_t> rows;
  for (size_t i = 0; i < refs.size(); ++i) {
    if (refs[i].schema == schema_index) rows.push_back(i);
  }
  return rows;
}

linalg::Matrix SignatureSet::SchemaSignatures(int schema_index) const {
  return linalg::GatherRows(signatures, RowsOfSchema(schema_index));
}

SignatureSet BuildSignatures(const schema::SchemaSet& set,
                             const embed::SentenceEncoder& encoder,
                             const schema::SerializeOptions&
                                 serialize_options,
                             obs::Tracer* tracer, ThreadPool* pool) {
  SignatureSet out;
  {
    obs::ScopedSpan span(tracer, "pipeline.serialize");
    for (size_t s = 0; s < set.num_schemas(); ++s) {
      const auto serialized =
          schema::SerializeSchema(set.schema(static_cast<int>(s)),
                                  static_cast<int>(s), serialize_options);
      for (const auto& element : serialized) {
        out.refs.push_back(element.ref);
        out.texts.push_back(element.text);
      }
    }
    span.AddArg("elements", static_cast<long long>(out.refs.size()));
  }
  {
    obs::ScopedSpan span(tracer, "pipeline.embed");
    out.signatures = encoder.EncodeAll(out.texts, pool);
    span.AddArg("elements", static_cast<long long>(out.refs.size()));
    span.AddArg("dims", static_cast<long long>(out.signatures.cols()));
  }
  return out;
}

}  // namespace colscope::scoping
