#ifndef COLSCOPE_SCHEMA_FINGERPRINT_H_
#define COLSCOPE_SCHEMA_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "schema/serialize.h"

namespace colscope::schema {

/// Stable content fingerprint of one serialized schema element:
/// Checksum64 (XXH64) over its T^a/T^t text, domain-separated from raw
/// payload checksums.
/// Deliberately excludes the ElementRef — the fingerprint identifies
/// *what* the element says, not *where* it currently sits in a schema
/// set, so reordering sources or renaming the source file (the schema
/// name appears in no serialized text) never changes it.
uint64_t ElementFingerprint(const SerializedElement& element);

/// Checksum64 chained through the seed over every serialized element of
/// `schema` in the canonical flattened order (tables first, then
/// attributes in table / column order — the exact order SerializeSchema
/// emits and the encoder consumes). Two schemas with identical metadata
/// content fingerprint identically regardless of their names; any edit
/// to a table name, attribute name, type, or constraint changes the
/// fingerprint.
uint64_t SchemaContentFingerprint(const Schema& schema,
                                  const SerializeOptions& options = {});

/// SchemaContentFingerprint computed from an already-serialized element
/// list (avoids re-serializing when the caller holds the elements).
uint64_t SerializedElementsFingerprint(
    const std::vector<SerializedElement>& elements);

}  // namespace colscope::schema

#endif  // COLSCOPE_SCHEMA_FINGERPRINT_H_
