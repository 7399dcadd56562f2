#ifndef COLSCOPE_SCOPING_IO_UTIL_H_
#define COLSCOPE_SCOPING_IO_UTIL_H_

#include <string>

#include "common/status.h"
#include "linalg/matrix.h"

namespace colscope::scoping::io {

/// Shared parsing discipline of the text artifacts this library
/// exchanges and caches (local models, signature blocks, keep masks).
/// Every artifact crosses an untrusted boundary — a faulty transport or
/// a damaged cache object — so parsing is strict: finite-only
/// numbers, no trailing garbage, overflow-checked sizes.

/// Parses one double strictly; false on trailing garbage, range error,
/// or non-finite value (NaN/Inf never appear in a valid artifact and
/// would poison every downstream computation).
bool ParseFiniteDouble(const std::string& token, double& out);

/// Parses a strictly non-negative decimal integer; false on sign,
/// trailing garbage, or overflow.
bool ParseSize(const std::string& token, size_t& out);

/// Parses a line of exactly `count` whitespace-separated doubles.
Status ParseVectorLine(const std::string& line, size_t count,
                       linalg::Vector& out);

/// Appends `v` as %.17g doubles (round-trip exact) plus a newline.
void AppendVector(std::string& out, const linalg::Vector& v);

}  // namespace colscope::scoping::io

#endif  // COLSCOPE_SCOPING_IO_UTIL_H_
