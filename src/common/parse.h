#ifndef COLSCOPE_COMMON_PARSE_H_
#define COLSCOPE_COMMON_PARSE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace colscope {

/// The strict token parsers every text codec shares (wire payloads, cache
/// entry headers, model and signature artifacts). Each payload crosses an
/// untrusted boundary, so parsing is strict: no trailing garbage, no sign
/// on unsigned values, range-checked integers, finite-only doubles. Each
/// codec keeps its own caps and error text.

/// False on trailing garbage, range error, or NaN/Inf.
bool ParseFiniteDouble(const std::string& token, double& out);

/// False on a sign, trailing garbage, or overflow.
bool ParseUint64(const std::string& token, uint64_t& out);

/// ParseUint64 narrowed to size_t.
bool ParseSize(const std::string& token, size_t& out);

/// A signed decimal within [min, max].
bool ParseInt(const std::string& token, long long min, long long max,
              long long& out);

/// Space/tab-separated tokens of one codec line. A line carrying any
/// other whitespace byte (\r, \n, \v, \f) yields none, which every codec
/// rejects: no encoder emits one, and no token may smuggle a separator.
std::vector<std::string> TokenizeLine(std::string_view line);

/// Splits the first '\n'-terminated line off the front of `text` into
/// `line` (newline dropped). False, with `text` unchanged, when no
/// newline remains: the header line was truncated.
bool ConsumeLine(std::string_view& text, std::string_view& line);

/// Consumes one "<key> <n>\n" header line whose count is written exactly
/// as "%zu" prints it: one space, ASCII digits only, no redundant leading
/// zero, no overflow. Decoders that must accept only the bytes their
/// encoder writes (the artifact cache) read their counts with it.
bool ConsumeCountLine(std::string_view& text, std::string_view key,
                      uint64_t& out);

}  // namespace colscope

#endif  // COLSCOPE_COMMON_PARSE_H_
