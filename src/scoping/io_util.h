#ifndef COLSCOPE_SCOPING_IO_UTIL_H_
#define COLSCOPE_SCOPING_IO_UTIL_H_

#include <string>

#include "common/status.h"
#include "linalg/matrix.h"

namespace colscope::scoping::io {

/// Vector lines of the text artifacts this library exchanges and caches
/// (local models, signature blocks), parsed with the strict token
/// discipline of common/parse.h.

/// Parses a line of exactly `count` whitespace-separated doubles.
Status ParseVectorLine(const std::string& line, size_t count,
                       linalg::Vector& out);

/// Appends `v` as %.17g doubles (round-trip exact) plus a newline.
void AppendVector(std::string& out, const linalg::Vector& v);

}  // namespace colscope::scoping::io

#endif  // COLSCOPE_SCOPING_IO_UTIL_H_
