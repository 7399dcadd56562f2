#include "scoping/io_util.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "common/parse.h"
#include "common/strings.h"

namespace colscope::scoping::io {

Status ParseVectorLine(const std::string& line, size_t count,
                       linalg::Vector& out) {
  const std::vector<std::string> tokens = SplitString(line, " \t");
  if (tokens.size() != count) {
    return Status::InvalidArgument(
        StrFormat("expected %zu values, found %zu", count, tokens.size()));
  }
  out.resize(count);
  for (size_t i = 0; i < count; ++i) {
    if (!ParseFiniteDouble(tokens[i], out[i])) {
      return Status::InvalidArgument("malformed number: " + tokens[i]);
    }
  }
  return Status::Ok();
}

void AppendVector(std::string& out, const linalg::Vector& v) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ' ';
    out += StrFormat("%.17g", v[i]);
  }
  out += '\n';
}

void AppendRawDoubles(std::string& out, std::span<const double> values) {
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size_bytes());
}

bool ReadRawDoubles(std::string_view& in, std::span<double> out) {
  if (in.size() < out.size_bytes()) return false;
  if (!out.empty()) std::memcpy(out.data(), in.data(), out.size_bytes());
  for (double value : out) {
    if (!std::isfinite(value)) return false;
  }
  in.remove_prefix(out.size_bytes());
  return true;
}

}  // namespace colscope::scoping::io
