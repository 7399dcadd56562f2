#ifndef COLSCOPE_SCOPING_SIGNATURE_IO_H_
#define COLSCOPE_SCOPING_SIGNATURE_IO_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace colscope::scoping {

/// Serializes a phase-III keep mask (linkability verdicts in signature
/// row order):
///   colscope-keep-mask v1
///   elements <n>
///   mask <n characters, each '0' or '1'>
std::string SerializeKeepMask(const std::vector<bool>& keep);

/// Parses a keep mask; fails on shape mismatch or any character outside
/// {'0','1'}.
Result<std::vector<bool>> DeserializeKeepMask(const std::string& text);

}  // namespace colscope::scoping

#endif  // COLSCOPE_SCOPING_SIGNATURE_IO_H_
