#ifndef COLSCOPE_SCOPING_IO_UTIL_H_
#define COLSCOPE_SCOPING_IO_UTIL_H_

#include <bit>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"
#include "linalg/matrix.h"

namespace colscope::scoping::io {

/// The double codecs of the artifacts this library exchanges and caches.

/// Text: vector lines of the published model format (scoping/model_io.h),
/// parsed with the strict token discipline of common/parse.h.

/// Parses a line of exactly `count` whitespace-separated doubles.
Status ParseVectorLine(const std::string& line, size_t count,
                       linalg::Vector& out);

/// Appends `v` as %.17g doubles (round-trip exact) plus a newline.
void AppendVector(std::string& out, const linalg::Vector& v);

/// Raw: the payloads of the artifact cache (cache/payloads.h) store each
/// double as its 8 IEEE-754 binary64 bytes, so a reader gets back the
/// exact bits (-0.0 and subnormals included) with no decimal round trip.
/// The byte order is the host's, pinned here to little-endian: a
/// big-endian build fails to compile rather than misread a cache.
static_assert(std::endian::native == std::endian::little,
              "raw-double payloads are little-endian");

/// Appends `values` as raw doubles.
void AppendRawDoubles(std::string& out, std::span<const double> values);

/// Copies `out.size()` raw doubles off the front of `in` into `out` and
/// drops them from `in`. False, with `in` unchanged, when `in` is too
/// short or a value is NaN or infinite (`out` is then unspecified).
bool ReadRawDoubles(std::string_view& in, std::span<double> out);

}  // namespace colscope::scoping::io

#endif  // COLSCOPE_SCOPING_IO_UTIL_H_
