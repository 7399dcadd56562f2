#ifndef COLSCOPE_SCOPING_SIGNATURE_IO_H_
#define COLSCOPE_SCOPING_SIGNATURE_IO_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace colscope::scoping {

/// Serializes a phase-III keep mask (linkability verdicts in signature
/// row order):
///   colscope-keep-mask v1
///   elements <n>
///   mask <n characters, each '0' or '1'>
std::string SerializeKeepMask(const std::vector<bool>& keep);

/// Parses a keep mask; fails on shape mismatch, any character outside
/// {'0','1'}, or any byte SerializeKeepMask would not have written
/// (whitespace variants, a padded count, trailing bytes), so an accepted
/// mask re-serializes to exactly `text`.
Result<std::vector<bool>> DeserializeKeepMask(std::string_view text);

}  // namespace colscope::scoping

#endif  // COLSCOPE_SCOPING_SIGNATURE_IO_H_
