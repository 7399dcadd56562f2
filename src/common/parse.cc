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

bool ConsumeLine(std::string_view& text, std::string_view& line) {
  const size_t newline = text.find('\n');
  if (newline == std::string_view::npos) return false;
  line = text.substr(0, newline);
  text.remove_prefix(newline + 1);
  return true;
}

bool ConsumeCountLine(std::string_view& text, std::string_view key,
                      uint64_t& out) {
  std::string_view rest = text;
  std::string_view line;
  if (!ConsumeLine(rest, line) || line.size() <= key.size() + 1 ||
      !StartsWith(line, key) || line[key.size()] != ' ') {
    return false;
  }
  const std::string_view digits = line.substr(key.size() + 1);
  if (digits.size() > 1 && digits[0] == '0') return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  text = rest;
  return true;
}

}  // namespace colscope
