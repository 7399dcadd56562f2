#include "scoping/io_util.h"

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

}  // namespace colscope::scoping::io
