#include "cache/pipeline_cache.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "cache/payloads.h"
#include "common/checksum.h"
#include "common/strings.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "schema/fingerprint.h"
#include "scoping/signature_io.h"

namespace colscope::cache {

namespace {

constexpr char kBaseDomain[] = "colscope-pipeline-cache v2";
constexpr char kKeepBitsDomain[] = "colscope-keep-bits v1";

/// Fingerprint of one source's keep bits (row order within the source).
uint64_t KeepBitsFingerprint(const std::vector<bool>& active,
                             const std::vector<size_t>& rows) {
  std::string bits;
  bits.reserve(rows.size());
  for (size_t row : rows) bits.push_back(active[row] ? '1' : '0');
  return Checksum64(bits, Checksum64(kKeepBitsDomain));
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
  base_fp_ = Checksum64(encoder_->CacheIdentity(), Checksum64(kBaseDomain));
  base_fp_ = Checksum64(
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
    // A hit decodes straight into this source's rows, which are
    // contiguous in the row-major signature matrix.
    const std::span<double> dest(out.signatures.RowPtr(first_row),
                                 rows * dims);
    const Result<std::string> payload =
        cache_->Get(key, [&](std::string_view bytes) {
          return DecodeSigBlock(bytes, rows, dims, dest);
        });
    if (payload.status().interrupted()) return payload.status();
    if (payload.ok()) continue;

    // Miss: encode just this source's texts. Each row depends only on
    // its own text, so the result is byte-identical to encoding it
    // inside the full batch.
    std::vector<std::string> texts;
    texts.reserve(rows);
    for (const schema::SerializedElement& element : serialized_[s]) {
      texts.push_back(element.text);
    }
    const linalg::Matrix block = encoder_->EncodeAll(texts, pool);
    std::copy(block.data().begin(), block.data().end(), dest.begin());
    const Status put = cache_->Put(key, EncodeSigBlock(block));
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
    // Stamp with the source's *current* index: model content is
    // position-independent but phase III tells own from foreign models
    // by index.
    const Result<std::string> payload = cache_->Get(
        ModelKey(s, explained_variance), [&](std::string_view bytes) {
          Result<scoping::LocalModel> model =
              DecodeModelBlock(bytes, static_cast<int>(s));
          if (!model.ok()) return false;
          slots[s] = std::move(model).value();
          return true;
        });
    if (payload.status().interrupted()) return payload.status();
    if (!payload.ok()) missing.push_back(s);
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
                                   EncodeModelBlock(*slots[s]));
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
        std::vector<bool> cached;
        const Result<std::string> payload =
            cache_->Get(key, [&](std::string_view bytes) {
              Result<std::vector<bool>> slice =
                  scoping::DeserializeKeepMask(bytes);
              if (!slice.ok() || slice->size() != serialized_[s].size()) {
                return false;
              }
              cached = std::move(slice).value();
              return true;
            });
        if (payload.status().interrupted()) return payload.status();
        if (payload.ok()) {
          passes.exhaustive +=
              cached.size() * scoping::ForeignModels(models, schema);
          return cached;
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
      const Result<std::string> payload =
          cache_->Get(key, [&](std::string_view bytes) {
            std::optional<std::set<matching::ElementPair>> block =
                DecodeSimBlock(bytes, static_cast<int>(a),
                               static_cast<int>(b));
            if (!block.has_value()) return false;
            out.insert(block->begin(), block->end());
            return true;
          });
      if (payload.status().interrupted()) return payload.status();
      if (payload.ok()) continue;
      const std::set<matching::ElementPair> block = matcher.MatchBlock(
          signatures, active, static_cast<int>(a), static_cast<int>(b));
      out.insert(block.begin(), block.end());
      const Status put =
          cache_->Put(key, EncodeSimBlock(block, static_cast<int>(a)));
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
