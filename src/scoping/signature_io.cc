#include "scoping/signature_io.h"

#include "common/parse.h"
#include "common/strings.h"

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

Result<std::vector<bool>> DeserializeKeepMask(std::string_view text) {
  std::string_view line;
  if (!ConsumeLine(text, line) || line != kMaskHeader) {
    return Status::InvalidArgument("missing or unsupported keep-mask header");
  }
  uint64_t elements = 0;
  if (!ConsumeCountLine(text, "elements", elements) ||
      elements > kMaxElements) {
    return Status::InvalidArgument("malformed elements count line");
  }
  if (!ConsumeLine(text, line) || !StartsWith(line, "mask ")) {
    return Status::InvalidArgument("missing mask line");
  }
  const std::string_view bits = line.substr(5);
  if (bits.size() != elements) {
    return Status::InvalidArgument(
        StrFormat("mask declares %zu elements, found %zu bits",
                  static_cast<size_t>(elements), bits.size()));
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
  if (!text.empty()) {
    return Status::InvalidArgument("trailing bytes after mask");
  }
  return keep;
}

}  // namespace colscope::scoping
