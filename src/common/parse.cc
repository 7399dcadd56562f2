#include "common/parse.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/strings.h"

namespace colscope {

bool ParseFiniteDouble(const std::string& token, double& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return errno == 0 && end != nullptr && *end == '\0' &&
         end != token.c_str() && std::isfinite(out);
}

bool ParseUint64(const std::string& token, uint64_t& out) {
  if (token.empty() || token[0] == '-' || token[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(token.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

bool ParseSize(const std::string& token, size_t& out) {
  uint64_t value = 0;
  if (!ParseUint64(token, value)) return false;
  out = static_cast<size_t>(value);
  return static_cast<uint64_t>(out) == value;
}

bool ParseInt(const std::string& token, long long min, long long max,
              long long& out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoll(token.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0' && out >= min &&
         out <= max;
}

std::vector<std::string> TokenizeLine(std::string_view line) {
  if (line.find_first_of("\r\n\v\f") != std::string_view::npos) return {};
  return SplitString(line, " \t");
}

}  // namespace colscope
