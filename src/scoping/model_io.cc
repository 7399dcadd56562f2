#include "scoping/model_io.h"

#include <climits>
#include <sstream>

#include "common/parse.h"
#include "common/strings.h"
#include "scoping/io_util.h"

namespace colscope::scoping {

namespace {

using io::AppendVector;
using io::ParseVectorLine;

constexpr char kHeader[] = "colscope-local-model v1";

/// Parses a decimal int in [-1, INT_MAX] (−1 is the "anonymous peer"
/// schema index); false on garbage or out-of-range values.
bool ParseSchemaIndex(const std::string& token, int& out) {
  long long value = 0;
  if (!ParseInt(token, -1, INT_MAX, value)) return false;
  out = static_cast<int>(value);
  return true;
}

}  // namespace

std::string SerializeLocalModel(const LocalModel& model) {
  const linalg::PcaModel& pca = model.pca();
  std::string out;
  out += kHeader;
  out += '\n';
  out += StrFormat("schema %d\n", model.schema_index());
  out += StrFormat("dims %zu\n", pca.dims());
  out += StrFormat("components %zu\n", pca.n_components());
  out += StrFormat("range %.17g\n", model.linkability_range());
  out += "mean ";
  AppendVector(out, pca.mean());
  for (size_t k = 0; k < pca.n_components(); ++k) {
    out += "pc ";
    AppendVector(out, pca.components().Row(k));
  }
  return out;
}

Result<LocalModel> DeserializeLocalModel(const std::string& text) {
  std::istringstream in(text);
  std::string line;

  if (!std::getline(in, line) || StripAsciiWhitespace(line) != kHeader) {
    return Status::InvalidArgument("missing or unsupported model header");
  }

  int schema_index = -1;
  size_t dims = 0, components = 0;
  double range = -1.0;
  bool seen_schema = false, seen_dims = false, seen_components = false,
       seen_range = false, seen_mean = false;
  linalg::Vector mean;
  linalg::Matrix pcs;
  size_t pcs_read = 0;

  while (std::getline(in, line)) {
    const std::string_view stripped = StripAsciiWhitespace(line);
    if (stripped.empty()) continue;
    const size_t space = stripped.find(' ');
    const std::string key(stripped.substr(0, space));
    const std::string value(
        space == std::string_view::npos ? "" : stripped.substr(space + 1));

    if (key == "schema") {
      if (seen_schema) {
        return Status::InvalidArgument("duplicate schema line");
      }
      if (!ParseSchemaIndex(value, schema_index)) {
        return Status::InvalidArgument("malformed schema index: " + value);
      }
      seen_schema = true;
    } else if (key == "dims") {
      if (seen_dims) return Status::InvalidArgument("duplicate dims line");
      if (!ParseSize(value, dims) || dims == 0 || dims > kMaxDims) {
        return Status::InvalidArgument(
            StrFormat("dims must be in [1, %zu], got: %s", kMaxDims,
                      value.c_str()));
      }
      seen_dims = true;
    } else if (key == "components") {
      if (seen_components) {
        return Status::InvalidArgument("duplicate components line");
      }
      if (!seen_dims) {
        return Status::InvalidArgument("dims must precede components");
      }
      if (!ParseSize(value, components) || components == 0 ||
          components > kMaxComponents ||
          components > kMaxTotalValues / dims) {
        return Status::InvalidArgument(
            StrFormat("components out of range for dims %zu: %s", dims,
                      value.c_str()));
      }
      seen_components = true;
      pcs = linalg::Matrix(components, dims);
    } else if (key == "range") {
      if (seen_range) return Status::InvalidArgument("duplicate range line");
      if (!ParseFiniteDouble(value, range) || range < 0.0) {
        return Status::InvalidArgument("malformed range: " + value);
      }
      seen_range = true;
    } else if (key == "mean") {
      if (seen_mean) return Status::InvalidArgument("duplicate mean line");
      if (!seen_dims) {
        return Status::InvalidArgument("dims must precede mean");
      }
      COLSCOPE_RETURN_IF_ERROR(ParseVectorLine(value, dims, mean));
      seen_mean = true;
    } else if (key == "pc") {
      if (!seen_components || pcs_read >= components) {
        return Status::InvalidArgument("more pc lines than components");
      }
      linalg::Vector row;
      COLSCOPE_RETURN_IF_ERROR(ParseVectorLine(value, dims, row));
      pcs.SetRow(pcs_read++, row);
    } else {
      return Status::InvalidArgument("unknown key: " + key);
    }
  }

  if (!seen_mean) {
    return Status::InvalidArgument("missing or malformed mean");
  }
  if (!seen_components || pcs_read != components) {
    return Status::InvalidArgument(
        StrFormat("expected %zu pc lines, found %zu", components, pcs_read));
  }
  if (!seen_range) {
    return Status::InvalidArgument("missing linkability range");
  }
  Result<linalg::PcaModel> pca =
      linalg::PcaModel::FromParts(std::move(mean), std::move(pcs));
  if (!pca.ok()) return pca.status();
  return LocalModel::FromParts(std::move(pca).value(), range, schema_index);
}

}  // namespace colscope::scoping
