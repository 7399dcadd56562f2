#ifndef COLSCOPE_CACHE_PAYLOADS_H_
#define COLSCOPE_CACHE_PAYLOADS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "matching/matcher.h"
#include "scoping/collaborative.h"

namespace colscope::cache {

/// The byte forms of PipelineCache's per-source artifacts (the keep
/// slice uses scoping/signature_io.h). Every decoder accepts exactly the
/// bytes its encoder writes for some value and rejects everything else,
/// so an accepted payload re-encodes to itself and a corrupt, truncated
/// or foreign payload is a miss that recomputes.
///
/// Signature blocks and models, the two large payloads, are a short text
/// header followed by raw IEEE-754 doubles (scoping/io_util.h,
/// little-endian): the cache stores the computed bits themselves, so a
/// warm run restores them exactly without parsing or printing decimal
/// text. Non-finite values are rejected, as the text codecs reject them.

/// One source's encoded rows:
///   colscope-sig-block v2
///   rows <R>
///   dims <D>
///   <R*D raw doubles, row-major>
std::string EncodeSigBlock(const linalg::Matrix& rows);

/// Decodes a sig block of exactly `rows` x `dims` into `out` (`rows *
/// dims` doubles, row-major). False on any other shape — a block whose
/// shape drifted from the current schema or encoder is unusable even
/// when it is self-consistent — or any malformation.
bool DecodeSigBlock(std::string_view payload, size_t rows, size_t dims,
                    std::span<double> out);

/// One fitted local model, position-independent (no schema index):
///   colscope-model-block v1
///   dims <D>
///   components <K>
///   <raw doubles: range, mean (D), components (K*D, row-major)>
std::string EncodeModelBlock(const scoping::LocalModel& model);

/// Decodes a model block and stamps it with `schema_index`. Applies
/// scoping/model_io.h's shape caps before allocating; rejects a negative
/// range and non-finite values.
Result<scoping::LocalModel> DecodeModelBlock(std::string_view payload,
                                             int schema_index);

/// A similarity block's pairs in *relative* form — table/attribute
/// indices only, no schema indices — so a block stays valid when its two
/// sources move to different positions in the set:
///   colscope-sim-block v1
///   pairs <n>
///   pair <a.table> <a.attribute> <b.table> <b.attribute>   (n lines)
std::string EncodeSimBlock(const std::set<matching::ElementPair>& pairs,
                           int schema_a);

/// Decodes a sim block between sources `schema_a` and `schema_b`.
std::optional<std::set<matching::ElementPair>> DecodeSimBlock(
    std::string_view payload, int schema_a, int schema_b);

/// Position-dependent fingerprint of a fitted model set: Checksum64
/// (XXH64) chained through the seed over each model's raw bytes (schema
/// index, dims, component count, range, mean, components). Any change
/// to any bit of any model, or a reorder, changes it, so every cached
/// keep slice keyed by it refreshes.
uint64_t ModelSetFingerprint(const std::vector<scoping::LocalModel>& models);

}  // namespace colscope::cache

#endif  // COLSCOPE_CACHE_PAYLOADS_H_
