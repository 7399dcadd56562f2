#ifndef COLSCOPE_SCOPING_MODEL_IO_H_
#define COLSCOPE_SCOPING_MODEL_IO_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "scoping/collaborative.h"

namespace colscope::scoping {

/// A decoded model arrives over an untrusted transport or from disk, so
/// its declared shape bounds what a decoder is willing to allocate: dims
/// and components are capped individually and jointly (the pc matrix is
/// dims * components doubles) before any allocation happens. Every model
/// decoder applies these caps: the text format below and the artifact
/// cache's raw-double model block (cache/payloads.h).
inline constexpr size_t kMaxDims = size_t{1} << 20;
inline constexpr size_t kMaxComponents = size_t{1} << 16;
inline constexpr size_t kMaxTotalValues = size_t{1} << 24;

/// Serializes a local model M_k = {mu_k, PC_k, l_k} to a portable text
/// format. This is the artifact organizations exchange in collaborative
/// scoping — the schemas themselves never leave their owner (Section 3,
/// phase III: "does not exchange tables and attributes among the
/// schemas, but the self-trained encoder-decoders").
///
/// Format (line oriented, locale-independent %.17g doubles):
///   colscope-local-model v1
///   schema <index>
///   dims <d>
///   components <n>
///   range <l_k>
///   mean <d doubles>
///   pc <d doubles>          (n lines, one principal component each)
std::string SerializeLocalModel(const LocalModel& model);

/// Parses a model serialized by SerializeLocalModel. Fails with
/// InvalidArgument on version/shape mismatches or malformed numbers.
Result<LocalModel> DeserializeLocalModel(const std::string& text);

}  // namespace colscope::scoping

#endif  // COLSCOPE_SCOPING_MODEL_IO_H_
