#include "cache/payloads.h"

#include <utility>

#include "common/checksum.h"
#include "common/parse.h"
#include "common/strings.h"
#include "linalg/pca.h"
#include "scoping/io_util.h"
#include "scoping/model_io.h"

namespace colscope::cache {

namespace {

constexpr char kSigBlockHeader[] = "colscope-sig-block v2";
constexpr char kModelBlockHeader[] = "colscope-model-block v1";
constexpr char kSimBlockHeader[] = "colscope-sim-block v1";
constexpr char kModelSetDomain[] = "colscope-model-set-fingerprint v2";

std::string SigBlockHeader(size_t rows, size_t dims) {
  return StrFormat("%s\nrows %zu\ndims %zu\n", kSigBlockHeader, rows, dims);
}

/// The model block's raw body: range, mean, components.
size_t ModelBodyDoubles(size_t dims, size_t components) {
  return 1 + dims + components * dims;
}

/// Parses a table/attribute index: -1 (the table-element marker) up to
/// 2^30.
bool ParseRefIndex(const std::string& token, int& out) {
  long long value = 0;
  if (!ParseInt(token, -1, 1LL << 30, value)) return false;
  out = static_cast<int>(value);
  return true;
}

std::string SimPairLine(const schema::ElementRef& a,
                        const schema::ElementRef& b) {
  return StrFormat("pair %d %d %d %d", a.table, a.attribute, b.table,
                   b.attribute);
}

uint64_t HashDoubles(std::span<const double> values, uint64_t h) {
  return Checksum64(
      std::string_view(reinterpret_cast<const char*>(values.data()),
                       values.size_bytes()),
      h);
}

uint64_t HashU64(uint64_t value, uint64_t h) {
  return Checksum64(
      std::string_view(reinterpret_cast<const char*>(&value), sizeof(value)),
      h);
}

}  // namespace

std::string EncodeSigBlock(const linalg::Matrix& rows) {
  std::string out = SigBlockHeader(rows.rows(), rows.cols());
  out.reserve(out.size() + rows.rows() * rows.cols() * sizeof(double));
  scoping::io::AppendRawDoubles(out, rows.data());
  return out;
}

bool DecodeSigBlock(std::string_view payload, size_t rows, size_t dims,
                    std::span<double> out) {
  if (out.size() != rows * dims) return false;
  const std::string header = SigBlockHeader(rows, dims);
  if (!StartsWith(payload, header) ||
      payload.size() - header.size() != out.size_bytes()) {
    return false;
  }
  payload.remove_prefix(header.size());
  return scoping::io::ReadRawDoubles(payload, out);
}

std::string EncodeModelBlock(const scoping::LocalModel& model) {
  const linalg::PcaModel& pca = model.pca();
  std::string out = StrFormat("%s\ndims %zu\ncomponents %zu\n",
                              kModelBlockHeader, pca.dims(),
                              pca.n_components());
  out.reserve(out.size() +
              ModelBodyDoubles(pca.dims(), pca.n_components()) *
                  sizeof(double));
  const double range = model.linkability_range();
  scoping::io::AppendRawDoubles(out, std::span<const double>(&range, 1));
  scoping::io::AppendRawDoubles(out, pca.mean());
  scoping::io::AppendRawDoubles(out, pca.components().data());
  return out;
}

Result<scoping::LocalModel> DecodeModelBlock(std::string_view payload,
                                             int schema_index) {
  std::string_view line;
  if (!ConsumeLine(payload, line) || line != kModelBlockHeader) {
    return Status::InvalidArgument("missing or unsupported model-block header");
  }
  uint64_t dims = 0;
  uint64_t components = 0;
  if (!ConsumeCountLine(payload, "dims", dims) || dims == 0 ||
      dims > scoping::kMaxDims) {
    return Status::InvalidArgument(
        StrFormat("model-block dims must be in [1, %zu]", scoping::kMaxDims));
  }
  if (!ConsumeCountLine(payload, "components", components) ||
      components == 0 || components > scoping::kMaxComponents ||
      components > scoping::kMaxTotalValues / dims) {
    return Status::InvalidArgument(StrFormat(
        "model-block components out of range for dims %zu",
        static_cast<size_t>(dims)));
  }
  if (payload.size() != ModelBodyDoubles(dims, components) * sizeof(double)) {
    return Status::InvalidArgument(
        StrFormat("model-block body is %zu bytes, its shape needs %zu",
                  payload.size(),
                  ModelBodyDoubles(dims, components) * sizeof(double)));
  }
  double range = 0.0;
  linalg::Vector mean(dims);
  linalg::Matrix pcs(components, dims);
  if (!scoping::io::ReadRawDoubles(payload, std::span<double>(&range, 1)) ||
      !scoping::io::ReadRawDoubles(payload, mean) ||
      !scoping::io::ReadRawDoubles(payload, pcs.data())) {
    return Status::InvalidArgument("model block holds a non-finite value");
  }
  Result<linalg::PcaModel> pca =
      linalg::PcaModel::FromParts(std::move(mean), std::move(pcs));
  if (!pca.ok()) return pca.status();
  return scoping::LocalModel::FromParts(std::move(pca).value(), range,
                                        schema_index);
}

std::string EncodeSimBlock(const std::set<matching::ElementPair>& pairs,
                           int schema_a) {
  std::string out(kSimBlockHeader);
  out += '\n';
  out += StrFormat("pairs %zu\n", pairs.size());
  for (const matching::ElementPair& pair : pairs) {
    // Canonicalized pairs order by schema first, so `first` belongs to
    // the lower-indexed source; emit the a-side ref first regardless of
    // which side that is.
    const bool first_is_a = pair.first.schema == schema_a;
    out += SimPairLine(first_is_a ? pair.first : pair.second,
                       first_is_a ? pair.second : pair.first);
    out += '\n';
  }
  return out;
}

std::optional<std::set<matching::ElementPair>> DecodeSimBlock(
    std::string_view payload, int schema_a, int schema_b) {
  std::string_view line;
  uint64_t count = 0;
  if (!ConsumeLine(payload, line) || line != kSimBlockHeader ||
      !ConsumeCountLine(payload, "pairs", count) || count > size_t{1} << 30) {
    return std::nullopt;
  }
  std::set<matching::ElementPair> out;
  for (uint64_t i = 0; i < count; ++i) {
    if (!ConsumeLine(payload, line)) return std::nullopt;
    const std::vector<std::string> tokens = TokenizeLine(line);
    schema::ElementRef a{schema_a, 0, 0};
    schema::ElementRef b{schema_b, 0, 0};
    if (tokens.size() != 5 || !ParseRefIndex(tokens[1], a.table) ||
        !ParseRefIndex(tokens[2], a.attribute) ||
        !ParseRefIndex(tokens[3], b.table) ||
        !ParseRefIndex(tokens[4], b.attribute) || SimPairLine(a, b) != line) {
      return std::nullopt;
    }
    // Only the encoder's exact line is accepted, and it writes the set
    // in order: a duplicate or out-of-order pair cannot come from it.
    const matching::ElementPair pair = matching::MakePair(a, b);
    if (!out.empty() && !(*out.rbegin() < pair)) return std::nullopt;
    out.emplace_hint(out.end(), pair);
  }
  if (!payload.empty()) return std::nullopt;
  return out;
}

uint64_t ModelSetFingerprint(const std::vector<scoping::LocalModel>& models) {
  uint64_t h = Checksum64(kModelSetDomain);
  for (const scoping::LocalModel& model : models) {
    const linalg::PcaModel& pca = model.pca();
    const double range = model.linkability_range();
    h = HashU64(static_cast<uint64_t>(static_cast<int64_t>(
                    model.schema_index())),
                h);
    h = HashU64(pca.dims(), h);
    h = HashU64(pca.n_components(), h);
    h = HashDoubles(std::span<const double>(&range, 1), h);
    h = HashDoubles(pca.mean(), h);
    h = HashDoubles(pca.components().data(), h);
  }
  return h;
}

}  // namespace colscope::cache
