#include "cache/pipeline_cache.h"

#include <optional>
#include <sstream>
#include <utility>

#include "common/checksum.h"
#include "common/parse.h"
#include "common/strings.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "schema/fingerprint.h"
#include "scoping/io_util.h"
#include "scoping/model_io.h"
#include "scoping/signature_io.h"

namespace colscope::cache {

namespace {

constexpr char kBaseDomain[] = "colscope-pipeline-cache v1";
constexpr char kKeepBitsDomain[] = "colscope-keep-bits v1";
constexpr char kModelSetDomain[] = "colscope-model-set-fingerprint v1";
constexpr char kSigBlockHeader[] = "colscope-sig-block v1";
constexpr char kSimBlockHeader[] = "colscope-sim-block v1";

/// Parses "<key> <n>" with the shared strict-size discipline.
bool ExpectSizeLine(std::istream& in, std::string_view key, size_t& out) {
  std::string line;
  if (!std::getline(in, line)) return false;
  const std::vector<std::string> tokens =
      SplitString(StripAsciiWhitespace(line), " \t");
  return tokens.size() == 2 && tokens[0] == key &&
         ParseSize(tokens[1], out);
}

/// Parses a table/attribute index: a non-negative decimal or exactly
/// "-1" (the table-element marker).
bool ParseRefIndex(const std::string& token, int& out) {
  if (token == "-1") {
    out = -1;
    return true;
  }
  size_t value = 0;
  if (!ParseSize(token, value) || value > size_t{1} << 30) {
    return false;
  }
  out = static_cast<int>(value);
  return true;
}

/// Fingerprint of one source's keep bits (row order within the source).
uint64_t KeepBitsFingerprint(const std::vector<bool>& active,
                             const std::vector<size_t>& rows) {
  std::string bits;
  bits.reserve(rows.size());
  for (size_t row : rows) bits.push_back(active[row] ? '1' : '0');
  return Fnv1a64(bits, Fnv1a64(kKeepBitsDomain));
}

/// Position-dependent fingerprint of the whole fitted model set — any
/// model change (or reorder) invalidates every cached keep slice, which
/// is the conservative and cheap-to-recompute direction.
uint64_t ModelSetFingerprint(
    const std::vector<scoping::LocalModel>& models) {
  uint64_t h = Fnv1a64(kModelSetDomain);
  for (const scoping::LocalModel& model : models) {
    h = Fnv1a64(scoping::SerializeLocalModel(model), h);
    h = Fnv1a64("\x1f", h);
  }
  return h;
}

/// One source's encoded rows, %.17g round-trip exact.
std::string SerializeSigBlock(const linalg::Matrix& rows) {
  std::string out(kSigBlockHeader);
  out += '\n';
  out += StrFormat("rows %zu\n", rows.rows());
  out += StrFormat("dims %zu\n", rows.cols());
  for (size_t r = 0; r < rows.rows(); ++r) {
    scoping::io::AppendVector(out, rows.Row(r));
  }
  return out;
}

/// Parses a sig block; nullopt on any malformation (callers recompute).
/// `want_rows`/`want_dims` pin the expected shape — a block whose shape
/// drifted from the current schema or encoder is unusable even when its
/// own envelope is self-consistent.
std::optional<linalg::Matrix> ParseSigBlock(const std::string& payload,
                                            size_t want_rows,
                                            size_t want_dims) {
  std::istringstream stream(payload);
  std::string line;
  if (!std::getline(stream, line) ||
      StripAsciiWhitespace(line) != kSigBlockHeader) {
    return std::nullopt;
  }
  size_t rows = 0;
  size_t dims = 0;
  if (!ExpectSizeLine(stream, "rows", rows) ||
      !ExpectSizeLine(stream, "dims", dims) || rows != want_rows ||
      dims != want_dims) {
    return std::nullopt;
  }
  linalg::Matrix out(rows, dims);
  linalg::Vector row;
  for (size_t r = 0; r < rows; ++r) {
    if (!std::getline(stream, line) ||
        !scoping::io::ParseVectorLine(line, dims, row).ok()) {
      return std::nullopt;
    }
    out.SetRow(r, row);
  }
  if (std::getline(stream, line) && !StripAsciiWhitespace(line).empty()) {
    return std::nullopt;
  }
  return out;
}

/// A similarity block's pairs in *relative* form — table/attribute
/// indices only, no schema indices — so a block stays valid when its two
/// sources move to different positions in the set.
std::string SerializeSimBlock(const std::set<matching::ElementPair>& pairs,
                              int schema_a) {
  std::string out(kSimBlockHeader);
  out += '\n';
  out += StrFormat("pairs %zu\n", pairs.size());
  for (const matching::ElementPair& pair : pairs) {
    // Canonicalized pairs order by schema first, so `first` belongs to
    // the lower-indexed source; emit the a-side ref first regardless of
    // which side that is.
    const schema::ElementRef& a_ref =
        pair.first.schema == schema_a ? pair.first : pair.second;
    const schema::ElementRef& b_ref =
        pair.first.schema == schema_a ? pair.second : pair.first;
    out += StrFormat("pair %d %d %d %d\n", a_ref.table, a_ref.attribute,
                     b_ref.table, b_ref.attribute);
  }
  return out;
}

std::optional<std::set<matching::ElementPair>> ParseSimBlock(
    const std::string& payload, int schema_a, int schema_b) {
  std::istringstream stream(payload);
  std::string line;
  if (!std::getline(stream, line) ||
      StripAsciiWhitespace(line) != kSimBlockHeader) {
    return std::nullopt;
  }
  size_t count = 0;
  if (!ExpectSizeLine(stream, "pairs", count) ||
      count > size_t{1} << 30) {
    return std::nullopt;
  }
  std::set<matching::ElementPair> out;
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(stream, line)) return std::nullopt;
    const std::vector<std::string> tokens =
        SplitString(StripAsciiWhitespace(line), " \t");
    int at = 0, aa = 0, bt = 0, ba = 0;
    if (tokens.size() != 5 || tokens[0] != "pair" ||
        !ParseRefIndex(tokens[1], at) || !ParseRefIndex(tokens[2], aa) ||
        !ParseRefIndex(tokens[3], bt) || !ParseRefIndex(tokens[4], ba)) {
      return std::nullopt;
    }
    out.insert(matching::MakePair(
        schema::ElementRef{schema_a, at, aa},
        schema::ElementRef{schema_b, bt, ba}));
  }
  if (std::getline(stream, line) && !StripAsciiWhitespace(line).empty()) {
    return std::nullopt;
  }
  return out;
}

}  // namespace

PipelineCache::PipelineCache(ArtifactCache* cache,
                             const embed::SentenceEncoder* encoder,
                             const schema::SchemaSet& set,
                             uint64_t semantic_options_fp,
                             const schema::SerializeOptions& serialize_options)
    : cache_(cache),
      encoder_(encoder),
      set_(&set),
      semantic_options_fp_(semantic_options_fp) {
  base_fp_ = Fnv1a64(encoder_->CacheIdentity(), Fnv1a64(kBaseDomain));
  base_fp_ = Fnv1a64(
      StrFormat("samples=%d,max=%zu",
                serialize_options.include_instance_samples ? 1 : 0,
                serialize_options.max_samples),
      base_fp_);
  serialized_.reserve(set.num_schemas());
  source_fps_.reserve(set.num_schemas());
  for (size_t s = 0; s < set.num_schemas(); ++s) {
    serialized_.push_back(schema::SerializeSchema(
        set.schema(static_cast<int>(s)), static_cast<int>(s),
        serialize_options));
    source_fps_.push_back(
        schema::SerializedElementsFingerprint(serialized_.back()));
  }
}

CacheKey PipelineCache::SigKey(size_t schema) const {
  return CacheKeyBuilder("sig")
      .AddHex("base", base_fp_)
      .AddHex("src", source_fps_[schema])
      .Build();
}

CacheKey PipelineCache::ModelKey(size_t schema,
                                 double explained_variance) const {
  return CacheKeyBuilder("model")
      .AddHex("base", base_fp_)
      .AddHex("src", source_fps_[schema])
      .AddText("ev", StrFormat("%.17g", explained_variance))
      .AddText("fit", StrFormat("%d", scoping::kLocalModelFitRevision))
      .Build();
}

CacheKey PipelineCache::KeepKey(size_t schema, uint64_t models_fp) const {
  return CacheKeyBuilder("keep")
      .AddHex("base", base_fp_)
      .AddHex("opts", semantic_options_fp_)
      .AddHex("src", source_fps_[schema])
      .AddHex("models", models_fp)
      .AddText("schema", StrFormat("%zu", schema))
      .Build();
}

CacheKey PipelineCache::SimBlockKey(const matching::Matcher& matcher,
                                    size_t schema_a, uint64_t keep_a,
                                    size_t schema_b, uint64_t keep_b) const {
  return CacheKeyBuilder("simblock")
      .AddHex("base", base_fp_)
      .AddText("matcher", matcher.BlockCacheId())
      .AddHex("srca", source_fps_[schema_a])
      .AddHex("keepa", keep_a)
      .AddHex("srcb", source_fps_[schema_b])
      .AddHex("keepb", keep_b)
      .Build();
}

Result<scoping::SignatureSet> PipelineCache::BuildSignatures(
    obs::Tracer* tracer, ThreadPool* pool) {
  scoping::SignatureSet out;
  {
    obs::ScopedSpan span(tracer, "pipeline.serialize");
    for (const auto& elements : serialized_) {
      for (const schema::SerializedElement& element : elements) {
        out.refs.push_back(element.ref);
        out.texts.push_back(element.text);
      }
    }
    span.AddArg("elements", static_cast<long long>(out.refs.size()));
  }

  obs::ScopedSpan span(tracer, "pipeline.embed");
  const size_t dims = encoder_->dims();
  out.signatures = linalg::Matrix(out.refs.size(), dims);
  size_t next_row = 0;
  for (size_t s = 0; s < serialized_.size(); ++s) {
    const size_t rows = serialized_[s].size();
    const size_t first_row = next_row;
    next_row += rows;

    const CacheKey key = SigKey(s);
    Result<std::string> payload = cache_->Get(key);
    if (payload.status().interrupted()) return payload.status();
    if (payload.ok()) {
      if (std::optional<linalg::Matrix> block =
              ParseSigBlock(*payload, rows, dims)) {
        for (size_t r = 0; r < rows; ++r) {
          out.signatures.SetRow(first_row + r, block->Row(r));
        }
        continue;
      }
      COLSCOPE_LOG(Warn) << "unparseable cached signature block for source "
                         << s << "; re-encoding";
    }

    // Miss: encode just this source's texts. Each row depends only on
    // its own text, so the result is byte-identical to encoding it
    // inside the full batch.
    std::vector<std::string> texts;
    texts.reserve(rows);
    for (const schema::SerializedElement& element : serialized_[s]) {
      texts.push_back(element.text);
    }
    const linalg::Matrix block = encoder_->EncodeAll(texts, pool);
    for (size_t r = 0; r < rows; ++r) {
      out.signatures.SetRow(first_row + r, block.Row(r));
    }
    const Status put = cache_->Put(key, SerializeSigBlock(block));
    if (put.interrupted()) return put;
    if (!put.ok()) {
      COLSCOPE_LOG(Warn) << "cannot cache signature block for source " << s
                         << ": " << put.ToString();
    }
  }
  span.AddArg("elements", static_cast<long long>(out.refs.size()));
  span.AddArg("dims", static_cast<long long>(out.signatures.cols()));
  return out;
}

Result<std::vector<scoping::LocalModel>> PipelineCache::FitLocalModels(
    const scoping::SignatureSet& signatures, double explained_variance,
    ThreadPool* pool, const CancellationToken* cancel) {
  const size_t num_schemas = serialized_.size();
  std::vector<std::optional<scoping::LocalModel>> slots(num_schemas);
  std::vector<size_t> missing;

  for (size_t s = 0; s < num_schemas; ++s) {
    Result<std::string> payload =
        cache_->Get(ModelKey(s, explained_variance));
    if (!payload.ok()) {
      if (payload.status().interrupted()) return payload.status();
      missing.push_back(s);
      continue;
    }
    Result<scoping::LocalModel> model =
        scoping::DeserializeLocalModel(*payload);
    if (!model.ok()) {
      COLSCOPE_LOG(Warn) << "unparseable cached model for source " << s
                         << ": " << model.status().ToString()
                         << "; refitting";
      missing.push_back(s);
      continue;
    }
    // Re-stamp to the source's *current* index: model content is
    // position-independent but phase III tells own from foreign models
    // by index.
    Result<scoping::LocalModel> stamped = scoping::LocalModel::FromParts(
        model->pca(), model->linkability_range(), static_cast<int>(s));
    if (!stamped.ok()) {
      missing.push_back(s);
      continue;
    }
    slots[s] = std::move(stamped).value();
  }

  // Fit the misses exactly as the uncached phase II would.
  Result<std::vector<scoping::LocalModel>> fitted = scoping::FitLocalModelsOf(
      signatures, missing, explained_variance, pool, cancel);
  if (!fitted.ok()) return fitted.status();
  for (size_t i = 0; i < missing.size(); ++i) {
    slots[missing[i]] = std::move((*fitted)[i]);
  }
  for (size_t s : missing) {
    const Status put = cache_->Put(ModelKey(s, explained_variance),
                                   scoping::SerializeLocalModel(*slots[s]));
    if (put.interrupted()) return put;
    if (!put.ok()) {
      COLSCOPE_LOG(Warn) << "cannot cache model for source " << s << ": "
                         << put.ToString();
    }
  }

  std::vector<scoping::LocalModel> models;
  models.reserve(num_schemas);
  for (auto& slot : slots) models.push_back(std::move(*slot));
  return models;
}

Result<std::vector<bool>> PipelineCache::AssessAll(
    const scoping::SignatureSet& signatures,
    const std::vector<scoping::LocalModel>& models,
    obs::MetricsRegistry* metrics) {
  const uint64_t models_fp = ModelSetFingerprint(models);
  scoping::ModelPasses passes;
  Result<std::vector<bool>> keep = scoping::MergeConsumerVerdicts(
      signatures, serialized_.size(),
      [&](int schema) -> Result<std::vector<bool>> {
        const size_t s = static_cast<size_t>(schema);
        const CacheKey key = KeepKey(s, models_fp);
        Result<std::string> payload = cache_->Get(key);
        if (payload.status().interrupted()) return payload.status();
        if (payload.ok()) {
          Result<std::vector<bool>> slice =
              scoping::DeserializeKeepMask(*payload);
          if (slice.ok() && slice->size() == serialized_[s].size()) {
            passes.exhaustive +=
                slice->size() * scoping::ForeignModels(models, schema);
            return slice;
          }
          COLSCOPE_LOG(Warn) << "unparseable cached keep slice for source "
                             << s << "; reassessing";
        }

        std::vector<bool> linkable = scoping::AssessLinkability(
            signatures.signatures, signatures.RowsOfSchema(schema), schema,
            models, &passes);
        const Status put =
            cache_->Put(key, scoping::SerializeKeepMask(linkable));
        if (put.interrupted()) return put;
        if (!put.ok()) {
          COLSCOPE_LOG(Warn) << "cannot cache keep slice for source " << s
                             << ": " << put.ToString();
        }
        return linkable;
      });
  if (keep.ok()) scoping::RecordModelPasses(passes, metrics);
  return keep;
}

Result<std::set<matching::ElementPair>> PipelineCache::Match(
    const scoping::SignatureSet& signatures, const std::vector<bool>& active,
    const matching::Matcher& matcher) {
  if (matcher.BlockCacheId().empty()) {
    return Status::Unimplemented(
        "matcher " + matcher.name() +
        " does not support block-decomposed matching");
  }
  const size_t num_schemas = serialized_.size();
  std::vector<uint64_t> keep_fps(num_schemas);
  for (size_t s = 0; s < num_schemas; ++s) {
    keep_fps[s] = KeepBitsFingerprint(
        active, signatures.RowsOfSchema(static_cast<int>(s)));
  }

  std::set<matching::ElementPair> out;
  for (size_t a = 0; a < num_schemas; ++a) {
    for (size_t b = a + 1; b < num_schemas; ++b) {
      const CacheKey key =
          SimBlockKey(matcher, a, keep_fps[a], b, keep_fps[b]);
      Result<std::string> payload = cache_->Get(key);
      if (payload.status().interrupted()) return payload.status();
      if (payload.ok()) {
        if (std::optional<std::set<matching::ElementPair>> block =
                ParseSimBlock(*payload, static_cast<int>(a),
                              static_cast<int>(b))) {
          out.insert(block->begin(), block->end());
          continue;
        }
        COLSCOPE_LOG(Warn) << "unparseable cached similarity block ("
                           << a << "," << b << "); rematching";
      }
      const std::set<matching::ElementPair> block = matcher.MatchBlock(
          signatures, active, static_cast<int>(a), static_cast<int>(b));
      out.insert(block.begin(), block.end());
      const Status put =
          cache_->Put(key, SerializeSimBlock(block, static_cast<int>(a)));
      if (put.interrupted()) return put;
      if (!put.ok()) {
        COLSCOPE_LOG(Warn) << "cannot cache similarity block (" << a << ","
                           << b << "): " << put.ToString();
      }
    }
  }
  return out;
}

}  // namespace colscope::cache
