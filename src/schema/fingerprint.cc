#include "schema/fingerprint.h"

#include "common/checksum.h"

namespace colscope::schema {

namespace {

// Domain separators: an element text that happens to equal a whole-schema
// chain's input must not collide with it.
constexpr char kElementDomain[] = "colscope-element-fingerprint v1";
constexpr char kSchemaDomain[] = "colscope-schema-fingerprint v1";

}  // namespace

uint64_t ElementFingerprint(const SerializedElement& element) {
  return Checksum64(element.text, Checksum64(kElementDomain));
}

uint64_t SerializedElementsFingerprint(
    const std::vector<SerializedElement>& elements) {
  uint64_t h = Checksum64(kSchemaDomain);
  for (const SerializedElement& element : elements) {
    // Chain the text plus a separator so ["AB","C"] and ["A","BC"]
    // cannot collide.
    h = Checksum64(element.text, h);
    h = Checksum64("\x1f", h);
  }
  return h;
}

uint64_t SchemaContentFingerprint(const Schema& schema,
                                  const SerializeOptions& options) {
  // The schema index only stamps ElementRefs, which the fingerprint
  // ignores — index 0 keeps the result position-independent.
  return SerializedElementsFingerprint(
      SerializeSchema(schema, /*schema_index=*/0, options));
}

}  // namespace colscope::schema
