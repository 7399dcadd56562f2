#include "scoping/signature_io.h"

#include <sstream>

#include "common/parse.h"
#include "common/strings.h"
#include "scoping/io_util.h"

namespace colscope::scoping {

namespace {


constexpr char kMaskHeader[] = "colscope-keep-mask v1";

// Keep masks are read back from the artifact cache after arbitrary
// interference, so the declared element count bounds the allocation.
constexpr size_t kMaxElements = size_t{1} << 20;

}  // namespace

std::string SerializeKeepMask(const std::vector<bool>& keep) {
  std::string out;
  out += kMaskHeader;
  out += '\n';
  out += StrFormat("elements %zu\n", keep.size());
  out += "mask ";
  for (bool k : keep) out.push_back(k ? '1' : '0');
  out += '\n';
  return out;
}

Result<std::vector<bool>> DeserializeKeepMask(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || StripAsciiWhitespace(line) != kMaskHeader) {
    return Status::InvalidArgument("missing or unsupported keep-mask header");
  }
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("missing elements count");
  }
  std::vector<std::string> tokens =
      SplitString(StripAsciiWhitespace(line), " \t");
  size_t elements = 0;
  if (tokens.size() != 2 || tokens[0] != "elements" ||
      !ParseSize(tokens[1], elements) || elements > kMaxElements) {
    return Status::InvalidArgument("malformed elements count line");
  }
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("missing mask line");
  }
  const std::string_view mask_line = StripAsciiWhitespace(line);
  if (!StartsWith(mask_line, "mask")) {
    return Status::InvalidArgument("missing mask line");
  }
  const std::string_view bits =
      elements == 0 ? std::string_view() : mask_line.substr(5);
  if (elements > 0 && (mask_line.size() < 5 || mask_line[4] != ' ')) {
    return Status::InvalidArgument("malformed mask line");
  }
  if (bits.size() != elements) {
    return Status::InvalidArgument(
        StrFormat("mask declares %zu elements, found %zu bits", elements,
                  bits.size()));
  }
  std::vector<bool> keep(elements, false);
  for (size_t i = 0; i < elements; ++i) {
    if (bits[i] == '1') {
      keep[i] = true;
    } else if (bits[i] != '0') {
      return Status::InvalidArgument(
          StrFormat("mask bit %zu is not 0/1", i));
    }
  }
  while (std::getline(in, line)) {
    if (!StripAsciiWhitespace(line).empty()) {
      return Status::InvalidArgument("trailing garbage after mask");
    }
  }
  return keep;
}

}  // namespace colscope::scoping
