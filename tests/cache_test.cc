#include "cache/artifact_cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "cache/payloads.h"
#include "cache/pipeline_cache.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/strings.h"
#include "datasets/synthetic_corpus.h"
#include "datasets/toy.h"
#include "embed/hashed_encoder.h"
#include "matching/sim.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "pipeline/report.h"
#include "schema/fingerprint.h"
#include "scoping/model_io.h"
#include "scoping/signature_io.h"
#include "mutation_pass.h"

namespace colscope::cache {
namespace {

/// Fresh per-test scratch directory under the system temp dir, removed
/// on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("colscope_cache_" + name))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

ArtifactCache OpenOrDie(ArtifactCacheOptions options) {
  Result<ArtifactCache> cache = ArtifactCache::Open(std::move(options));
  EXPECT_TRUE(cache.ok()) << cache.status().ToString();
  return std::move(cache).value();
}

ArtifactCacheOptions MakeOptions(const std::string& dir,
                                 obs::MetricsRegistry* metrics = nullptr,
                                 uint64_t max_bytes = 0,
                                 const CancellationToken* cancel = nullptr) {
  ArtifactCacheOptions options;
  options.dir = dir;
  options.max_bytes = max_bytes;
  options.metrics = metrics;
  options.cancel = cancel;
  return options;
}

uint64_t CounterValue(obs::MetricsRegistry& metrics, const char* name) {
  return metrics.GetCounter(name).value();
}

TEST(CacheKeyBuilderTest, KeyTextIsCanonicalAndHashMatches) {
  const CacheKey key = CacheKeyBuilder("sig")
                           .AddHex("src", 0xdeadbeefULL)
                           .AddText("ev", "0.8")
                           .Build();
  EXPECT_EQ(key.text, "sig|src=00000000deadbeef|ev=0.8");
  EXPECT_EQ(key.hash, Checksum64(key.text));
}

TEST(ArtifactCacheTest, RoundTripsPayloadBytes) {
  ScratchDir dir("roundtrip");
  ArtifactCache cache = OpenOrDie(MakeOptions(dir.path()));
  const CacheKey key = CacheKeyBuilder("sig").AddHex("src", 1).Build();
  const std::string payload = "row 1 2 3\nrow 4 5 6\nbinary \x01\x02\n";
  ASSERT_TRUE(cache.Put(key, payload).ok());
  Result<std::string> got = cache.Get(key);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, payload);
}

TEST(ArtifactCacheTest, MissIsNotFoundAndCounted) {
  ScratchDir dir("miss");
  obs::MetricsRegistry metrics;
  ArtifactCache cache = OpenOrDie(MakeOptions(dir.path(), &metrics));
  Result<std::string> got =
      cache.Get(CacheKeyBuilder("sig").AddHex("src", 2).Build());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(metrics, "cache.misses"), 1u);
  EXPECT_EQ(CounterValue(metrics, "cache.hits"), 0u);
}

TEST(ArtifactCacheTest, ReopenSeesPersistedEntries) {
  ScratchDir dir("reopen");
  const CacheKey key = CacheKeyBuilder("model").AddHex("src", 3).Build();
  {
    ArtifactCache cache = OpenOrDie(MakeOptions(dir.path()));
    ASSERT_TRUE(cache.Put(key, "persisted").ok());
  }
  ArtifactCache cache = OpenOrDie(MakeOptions(dir.path()));
  Result<std::string> got = cache.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "persisted");
  EXPECT_GT(cache.total_bytes(), 0u);
}

TEST(ArtifactCacheTest, IncompatibleVersionStampRefusesToOpen) {
  // A future stamp, and v1, whose envelopes and object names were
  // FNV-1a and mean nothing to this build: refused, and left as they
  // were.
  for (const std::string stamp : {"colscope-cache v999", "colscope-cache v1"}) {
    ScratchDir dir("version");
    std::filesystem::create_directories(dir.path());
    WriteFile(dir.path() + "/CACHE_VERSION", stamp + "\n");
    Result<ArtifactCache> cache =
        ArtifactCache::Open(MakeOptions(dir.path()));
    ASSERT_FALSE(cache.ok()) << stamp;
    EXPECT_EQ(cache.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(cache.status().message().find("'" + stamp + "'"),
              std::string::npos)
        << cache.status().ToString();
    EXPECT_EQ(ReadFile(dir.path() + "/CACHE_VERSION"), stamp + "\n");
  }
}

TEST(ArtifactCacheTest, CorruptedEntryFallsThroughToMiss) {
  ScratchDir dir("corrupt");
  obs::MetricsRegistry metrics;
  ArtifactCache cache = OpenOrDie(MakeOptions(dir.path(), &metrics));
  const CacheKey key = CacheKeyBuilder("sig").AddHex("src", 4).Build();
  ASSERT_TRUE(cache.Put(key, "the quick brown fox").ok());

  // Flip one payload byte on disk; the checksum must catch it.
  const std::string path = cache.PathFor(key);
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    contents = buf.str();
  }
  contents[contents.size() - 5] ^= 0x20;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << contents;

  Result<std::string> got = cache.Get(key);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(metrics, "cache.corrupt"), 1u);
  EXPECT_EQ(CounterValue(metrics, "cache.misses"), 1u);
}

TEST(ArtifactCacheTest, TruncatedEntryFallsThroughToMiss) {
  ScratchDir dir("truncate");
  obs::MetricsRegistry metrics;
  ArtifactCache cache = OpenOrDie(MakeOptions(dir.path(), &metrics));
  const CacheKey key = CacheKeyBuilder("sig").AddHex("src", 5).Build();
  ASSERT_TRUE(cache.Put(key, std::string(256, 'x')).ok());

  const std::string path = cache.PathFor(key);
  std::filesystem::resize_file(path, 40);  // Mid-envelope.

  Result<std::string> got = cache.Get(key);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(metrics, "cache.corrupt"), 1u);
}

TEST(ArtifactCacheTest, HashCollisionDegradesToMissNotWrongPayload) {
  ScratchDir dir("collision");
  obs::MetricsRegistry metrics;
  ArtifactCache cache = OpenOrDie(MakeOptions(dir.path(), &metrics));
  const CacheKey a = CacheKeyBuilder("sig").AddHex("src", 6).Build();
  ASSERT_TRUE(cache.Put(a, "payload of a").ok());

  // Simulate a 64-bit collision: a different key whose hash (and
  // therefore on-disk path) equals a's. The stored key text must reject
  // the lookup instead of serving a's payload.
  CacheKey impostor = CacheKeyBuilder("sig").AddHex("src", 7).Build();
  impostor.hash = a.hash;
  Result<std::string> got = cache.Get(impostor);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(metrics, "cache.collisions"), 1u);
  // The true key still hits.
  EXPECT_TRUE(cache.Get(a).ok());
}

TEST(ArtifactCacheTest, EvictsLeastRecentlyUsedUnderSizeCap) {
  ScratchDir dir("evict");
  obs::MetricsRegistry metrics;
  // The cap covers whole entries (envelope + payload, ~240 bytes each
  // here): two fit under 600, three do not.
  ArtifactCache cache = OpenOrDie(
      MakeOptions(dir.path(), &metrics, /*max_bytes=*/600));
  const CacheKey k1 = CacheKeyBuilder("sig").AddHex("src", 11).Build();
  const CacheKey k2 = CacheKeyBuilder("sig").AddHex("src", 12).Build();
  const CacheKey k3 = CacheKeyBuilder("sig").AddHex("src", 13).Build();
  ASSERT_TRUE(cache.Put(k1, std::string(150, 'a')).ok());
  ASSERT_TRUE(cache.Put(k2, std::string(150, 'b')).ok());
  ASSERT_EQ(CounterValue(metrics, "cache.evictions"), 0u);
  // Touch k1 so k2 becomes the least recently used.
  ASSERT_TRUE(cache.Get(k1).ok());
  // k3 pushes the total over the cap; k2 must go, k3 must survive.
  ASSERT_TRUE(cache.Put(k3, std::string(150, 'c')).ok());
  EXPECT_GE(CounterValue(metrics, "cache.evictions"), 1u);
  EXPECT_TRUE(cache.Get(k3).ok()) << "the just-written entry was evicted";
  EXPECT_FALSE(cache.Get(k2).ok()) << "the LRU entry survived the cap";
  EXPECT_LE(cache.total_bytes(), 600u);
}

TEST(ArtifactCacheTest, CancelledTokenStopsLookups) {
  ScratchDir dir("cancel");
  CancellationToken cancel;
  ArtifactCache cache = OpenOrDie(MakeOptions(dir.path(), nullptr, 0, &cancel));
  const CacheKey key = CacheKeyBuilder("sig").AddHex("src", 20).Build();
  ASSERT_TRUE(cache.Put(key, "data").ok());
  cancel.Cancel();
  Result<std::string> got = cache.Get(key);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(cache.Put(key, "data").code(), StatusCode::kCancelled);
}

TEST(ArtifactCacheTest, ExpiredDeadlineStopsLookups) {
  ScratchDir dir("deadline");
  SimulatedRunClock clock;
  ArtifactCacheOptions options = MakeOptions(dir.path());
  options.deadline = Deadline::After(&clock, 10.0);
  ArtifactCache cache = OpenOrDie(std::move(options));
  const CacheKey key = CacheKeyBuilder("sig").AddHex("src", 21).Build();
  ASSERT_TRUE(cache.Put(key, "data").ok());
  clock.Advance(11.0);
  Result<std::string> got = cache.Get(key);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SchemaFingerprintTest, ContentNotNameOrPosition) {
  const auto scenario = datasets::BuildToyScenario();
  const schema::Schema& original = scenario.set.schema(0);

  schema::Schema renamed = original;
  renamed.set_name("completely_different_name");
  EXPECT_EQ(schema::SchemaContentFingerprint(original),
            schema::SchemaContentFingerprint(renamed));

  schema::Schema edited = original;
  edited.mutable_tables()[0].attributes[0].raw_type = "BLOB";
  edited.mutable_tables()[0].attributes[0].type = schema::DataType::kBlob;
  EXPECT_NE(schema::SchemaContentFingerprint(original),
            schema::SchemaContentFingerprint(edited));
}

/// Pipeline-level fixture: runs the toy scenario through Pipeline::Run
/// with a cache directory and inspects the per-source invalidation.
class PipelineCacheTest : public ::testing::Test {
 protected:
  pipeline::PipelineRun RunWith(const schema::SchemaSet& set,
                                const std::string& cache_dir,
                                obs::MetricsRegistry* metrics,
                                size_t threads = 1) {
    pipeline::PipelineOptions options;
    options.explained_variance = 0.5;
    options.cache_dir = cache_dir;
    options.metrics = metrics;
    options.num_threads = threads;
    pipeline::Pipeline pipe(&encoder_, options);
    auto run = pipe.Run(set, matcher_);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return std::move(run).value();
  }

  embed::HashedLexiconEncoder encoder_;
  matching::SimMatcher matcher_{0.6};
  datasets::MatchingScenario scenario_ = datasets::BuildToyScenario();
};

TEST_F(PipelineCacheTest, WarmRunHitsEverythingAndMatchesColdBitForBit) {
  ScratchDir dir("pipeline_warm");
  obs::MetricsRegistry cold_metrics;
  const pipeline::PipelineRun cold =
      RunWith(scenario_.set, dir.path(), &cold_metrics);
  EXPECT_EQ(CounterValue(cold_metrics, "cache.hits"), 0u);
  EXPECT_GT(CounterValue(cold_metrics, "cache.misses"), 0u);

  obs::MetricsRegistry warm_metrics;
  const pipeline::PipelineRun warm =
      RunWith(scenario_.set, dir.path(), &warm_metrics, /*threads=*/4);
  EXPECT_EQ(CounterValue(warm_metrics, "cache.misses"), 0u);
  EXPECT_GT(CounterValue(warm_metrics, "cache.hits"), 0u);

  EXPECT_EQ(cold.signatures.signatures.data(),
            warm.signatures.signatures.data());
  EXPECT_EQ(cold.keep, warm.keep);
  EXPECT_EQ(cold.linkages, warm.linkages);
}

TEST_F(PipelineCacheTest, PreviousFormatDirectoryWarnsAndRunsUncached) {
  ScratchDir dir("pipeline_v1");
  std::filesystem::create_directories(dir.path());
  WriteFile(dir.path() + "/CACHE_VERSION", "colscope-cache v1\n");

  obs::InMemorySink sink;
  const obs::LogLevel saved_level = obs::Logger::Global().level();
  obs::Logger::Global().set_level(obs::LogLevel::kWarn);
  obs::Logger::Global().set_stderr_fallback(false);
  obs::Logger::Global().AddSink(&sink);
  const pipeline::PipelineRun stale =
      RunWith(scenario_.set, dir.path(), nullptr);
  obs::Logger::Global().RemoveSink(&sink);
  obs::Logger::Global().set_stderr_fallback(true);
  obs::Logger::Global().set_level(saved_level);

  const pipeline::PipelineRun uncached = RunWith(scenario_.set, "", nullptr);
  EXPECT_EQ(pipeline::RunToJson(stale, scenario_.set),
            pipeline::RunToJson(uncached, scenario_.set));
  size_t warnings = 0;
  for (const std::string& line : sink.lines()) {
    if (line.find("artifact cache disabled") != std::string::npos &&
        line.find("colscope-cache v1") != std::string::npos) {
      ++warnings;
    }
  }
  EXPECT_EQ(warnings, 1u);
  // Nothing was written into the old directory.
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir.path())) {
    EXPECT_NE(entry.path().extension(), ".art") << entry.path();
  }
  EXPECT_EQ(ReadFile(dir.path() + "/CACHE_VERSION"), "colscope-cache v1\n");
}

TEST_F(PipelineCacheTest, EditingOneSourceRecomputesOnlyItsArtifacts) {
  ScratchDir dir("pipeline_delta");
  // Two sources so artifact counts are exact: 2 signature blocks,
  // 2 models, 2 keep slices, 1 similarity block = 7 artifacts.
  std::vector<schema::Schema> two = {scenario_.set.schema(0),
                                     scenario_.set.schema(1)};
  obs::MetricsRegistry cold_metrics;
  RunWith(schema::SchemaSet(two), dir.path(), &cold_metrics);
  EXPECT_EQ(CounterValue(cold_metrics, "cache.misses"), 7u);
  EXPECT_EQ(CounterValue(cold_metrics, "cache.writes"), 7u);

  // Edit one attribute of source 0; source 1 stays untouched.
  two[0].mutable_tables()[0].attributes[0].name = "renamed_attr";

  obs::MetricsRegistry delta_metrics;
  RunWith(schema::SchemaSet(two), dir.path(), &delta_metrics);
  // Dirty (misses): source 0's signature block and model, both keep
  // slices (the shared model set changed), and the similarity block.
  // Clean (hits): source 1's signature block and model.
  EXPECT_EQ(CounterValue(delta_metrics, "cache.hits"), 2u);
  EXPECT_EQ(CounterValue(delta_metrics, "cache.misses"), 5u);
}

TEST_F(PipelineCacheTest, RenamedSourceIsACacheHit) {
  ScratchDir dir("pipeline_rename");
  obs::MetricsRegistry cold_metrics;
  RunWith(scenario_.set, dir.path(), &cold_metrics);

  std::vector<schema::Schema> schemas = scenario_.set.schemas();
  for (auto& schema : schemas) schema.set_name(schema.name() + "_renamed");
  const schema::SchemaSet renamed(schemas);

  obs::MetricsRegistry warm_metrics;
  RunWith(renamed, dir.path(), &warm_metrics);
  EXPECT_EQ(CounterValue(warm_metrics, "cache.misses"), 0u);
}

TEST_F(PipelineCacheTest, ChangingVarianceOverOneCacheMatchesColdRun) {
  ScratchDir shared("pipeline_variance_shared");
  ScratchDir cold_dir("pipeline_variance_cold");
  const auto run_at = [&](double v, const std::string& dir,
                          obs::MetricsRegistry* metrics) {
    pipeline::PipelineOptions options;
    options.explained_variance = v;
    options.cache_dir = dir;
    options.metrics = metrics;
    auto run = pipeline::Pipeline(&encoder_, options).Run(scenario_.set,
                                                          matcher_);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return std::move(run).value();
  };
  run_at(0.5, shared.path(), nullptr);

  // v keys the models (and through them the keep slices and similarity
  // blocks) but not the signatures: only the four signature blocks hit.
  obs::MetricsRegistry metrics;
  const pipeline::PipelineRun warm = run_at(0.9, shared.path(), &metrics);
  EXPECT_EQ(CounterValue(metrics, "cache.hits"), 4u);

  const pipeline::PipelineRun cold = run_at(0.9, cold_dir.path(), nullptr);
  EXPECT_EQ(cold.signatures.signatures.data(),
            warm.signatures.signatures.data());
  EXPECT_EQ(cold.keep, warm.keep);
  EXPECT_EQ(cold.linkages, warm.linkages);
}

TEST_F(PipelineCacheTest, RestoredWideModelsMatchAColdFitByteForByte) {
  // corpus_wide's shape: 144 signature rows per source, the size at
  // which the eigensolver's convergence test decides the fitted bits.
  datasets::CorpusOptions corpus;
  corpus.num_schemas = 4;
  corpus.tables_per_schema = 16;
  corpus.attrs_per_table = 8;
  corpus.seed = 1;
  const schema::SchemaSet set = datasets::BuildCorpusScenario(corpus).set;

  ScratchDir dir("pipeline_wide_models");
  RunWith(set, dir.path(), nullptr, /*threads=*/4);
  obs::MetricsRegistry warm_metrics;
  const pipeline::PipelineRun warm = RunWith(set, dir.path(), &warm_metrics);
  EXPECT_EQ(CounterValue(warm_metrics, "cache.misses"), 0u);
  const pipeline::PipelineRun cold = RunWith(set, "", nullptr);

  ASSERT_EQ(warm.local_models.size(), 4u);
  ASSERT_EQ(cold.local_models.size(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(scoping::SerializeLocalModel(warm.local_models[s]),
              scoping::SerializeLocalModel(cold.local_models[s]))
        << "source " << s;
  }
}


// ---- Raw-double payloads (cache/payloads.h). ----

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Values a decimal round trip is most likely to disturb.
const std::vector<double>& EdgeValues() {
  static const std::vector<double> values = {
      -0.0,     0.0,
      std::numeric_limits<double>::denorm_min(),
      -3 * std::numeric_limits<double>::denorm_min(),
      DBL_MIN,  -DBL_MIN,
      DBL_MAX,  -DBL_MAX,
      1e-310,   0.1,
      -1.0 / 3, std::nextafter(1.0, 2.0)};
  return values;
}

linalg::Matrix EdgeMatrix(size_t rows, size_t cols, size_t offset = 0) {
  linalg::Matrix m(rows, cols);
  for (size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = EdgeValues()[(i + offset) % EdgeValues().size()];
  }
  return m;
}

scoping::LocalModel EdgeModel(size_t dims, size_t components, double range) {
  const linalg::Matrix mean = EdgeMatrix(1, dims, 3);
  Result<linalg::PcaModel> pca = linalg::PcaModel::FromParts(
      linalg::Vector(mean.data().begin(), mean.data().end()),
      EdgeMatrix(components, dims));
  EXPECT_TRUE(pca.ok()) << pca.status().ToString();
  Result<scoping::LocalModel> model =
      scoping::LocalModel::FromParts(std::move(pca).value(), range, 0);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

/// The fitted model of the toy scenario's first schema: 768 dims.
scoping::LocalModel RealModel() {
  const auto scenario = datasets::BuildToyScenario();
  const embed::HashedLexiconEncoder encoder;
  const scoping::SignatureSet sig =
      scoping::BuildSignatures(scenario.set, encoder);
  const std::vector<size_t> rows = sig.RowsOfSchema(0);
  Result<scoping::LocalModel> model = scoping::LocalModel::Fit(
      linalg::GatherRows(sig.signatures, rows), 0.8, 0);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

void ExpectSameModelBits(const scoping::LocalModel& a,
                         const scoping::LocalModel& b) {
  EXPECT_TRUE(SameBits(a.linkability_range(), b.linkability_range()));
  ASSERT_EQ(a.pca().dims(), b.pca().dims());
  ASSERT_EQ(a.pca().n_components(), b.pca().n_components());
  for (size_t i = 0; i < a.pca().dims(); ++i) {
    EXPECT_TRUE(SameBits(a.pca().mean()[i], b.pca().mean()[i])) << i;
  }
  const auto& ca = a.pca().components().data();
  const auto& cb = b.pca().components().data();
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_TRUE(SameBits(ca[i], cb[i])) << i;
  }
}

/// Overwrites the `index`-th double of a payload whose raw body is its
/// last `body_doubles` doubles.
std::string WithDouble(std::string payload, size_t body_doubles,
                       size_t index, double value) {
  const size_t at =
      payload.size() - body_doubles * sizeof(double) + index * sizeof(double);
  std::memcpy(payload.data() + at, &value, sizeof(value));
  return payload;
}

TEST(PayloadCodecTest, SigBlockRoundTripsEveryBit) {
  const linalg::Matrix rows = EdgeMatrix(3, 13);
  const std::string payload = EncodeSigBlock(rows);
  linalg::Matrix back(3, 13);
  ASSERT_TRUE(DecodeSigBlock(payload, 3, 13, back.data()));
  for (size_t i = 0; i < rows.data().size(); ++i) {
    EXPECT_TRUE(SameBits(rows.data()[i], back.data()[i])) << i;
  }
  EXPECT_EQ(EncodeSigBlock(back), payload);
}

TEST(PayloadCodecTest, ModelBlockRoundTripsEveryBit) {
  for (const scoping::LocalModel& model :
       {EdgeModel(13, 4, std::numeric_limits<double>::denorm_min()),
        EdgeModel(5, 2, -0.0), RealModel()}) {
    const std::string payload = EncodeModelBlock(model);
    Result<scoping::LocalModel> back = DecodeModelBlock(payload, 7);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->schema_index(), 7);
    ExpectSameModelBits(model, *back);
    EXPECT_EQ(EncodeModelBlock(*back), payload);
  }
  EXPECT_EQ(RealModel().pca().dims(), 768u);
}

TEST(PayloadCodecTest, SigBlockRejectsEveryMalformation) {
  const linalg::Matrix rows = EdgeMatrix(3, 4);
  const std::string good = EncodeSigBlock(rows);
  linalg::Matrix out(3, 4);
  ASSERT_TRUE(DecodeSigBlock(good, 3, 4, out.data()));
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_FALSE(DecodeSigBlock(WithDouble(good, 12, 11, bad), 3, 4,
                                out.data()));
    EXPECT_FALSE(DecodeSigBlock(WithDouble(good, 12, 0, bad), 3, 4,
                                out.data()));
  }
  EXPECT_FALSE(DecodeSigBlock(good.substr(0, good.size() - 1), 3, 4,
                              out.data()));
  EXPECT_FALSE(DecodeSigBlock(good.substr(0, 20), 3, 4, out.data()));
  EXPECT_FALSE(DecodeSigBlock(good + '\0', 3, 4, out.data()));
  // A shape that drifted from the current schema or encoder.
  linalg::Matrix fewer(2, 4), narrower(3, 3);
  EXPECT_FALSE(DecodeSigBlock(good, 2, 4, fewer.data()));
  EXPECT_FALSE(DecodeSigBlock(good, 3, 3, narrower.data()));
  std::string old_header = good;
  old_header.replace(old_header.find("v2"), 2, "v1");
  EXPECT_FALSE(DecodeSigBlock(old_header, 3, 4, out.data()));
  std::string padded = good;
  padded.replace(padded.find("rows 3"), 6, "rows 03");
  EXPECT_FALSE(DecodeSigBlock(padded, 3, 4, out.data()));
}

TEST(PayloadCodecTest, ModelBlockRejectsEveryMalformation) {
  const std::string good = EncodeModelBlock(EdgeModel(4, 2, 0.5));
  const size_t body = 1 + 4 + 2 * 4;
  ASSERT_TRUE(DecodeModelBlock(good, 0).ok());
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejects = [](const std::string& payload) {
    return !DecodeModelBlock(payload, 0).ok();
  };
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_TRUE(rejects(WithDouble(good, body, 0, bad)));         // range
    EXPECT_TRUE(rejects(WithDouble(good, body, 2, bad)));         // mean
    EXPECT_TRUE(rejects(WithDouble(good, body, body - 1, bad)));  // pc
  }
  EXPECT_TRUE(rejects(WithDouble(good, body, 0, -1.0)));
  EXPECT_TRUE(rejects(WithDouble(good, body, 0, -DBL_MIN)));
  EXPECT_TRUE(rejects(good.substr(0, good.size() - 8)));
  EXPECT_TRUE(rejects(good.substr(0, good.size() - 1)));
  EXPECT_TRUE(rejects(good + '\0'));
  EXPECT_TRUE(rejects("colscope-model-block v0" +
                      good.substr(good.find('\n'))));
  // Declared shapes past model_io's caps are refused before allocating.
  const auto header = [](const char* dims, const char* components) {
    return StrFormat("colscope-model-block v1\ndims %s\ncomponents %s\n",
                     dims, components) +
           std::string(64, '\0');
  };
  EXPECT_TRUE(rejects(header("0", "1")));
  EXPECT_TRUE(rejects(header("1048577", "1")));
  EXPECT_TRUE(rejects(header("4", "0")));
  EXPECT_TRUE(rejects(header("1", "65537")));
  EXPECT_TRUE(rejects(header("4096", "4097")));
  EXPECT_TRUE(rejects(header("4", "02")));
  EXPECT_TRUE(rejects(header("18446744073709551616", "1")));
}

TEST(PayloadCodecTest, ModelSetFingerprintSeesOneComponentBit) {
  const std::vector<scoping::LocalModel> models = {EdgeModel(6, 3, 0.25),
                                                   RealModel()};
  const uint64_t base = ModelSetFingerprint(models);
  EXPECT_EQ(ModelSetFingerprint(models), base);

  const scoping::LocalModel& real = models[1];
  linalg::Matrix flipped = real.pca().components();
  double& value = flipped.data()[flipped.data().size() / 2];
  value = std::bit_cast<double>(std::bit_cast<uint64_t>(value) ^ 1u);
  Result<linalg::PcaModel> pca =
      linalg::PcaModel::FromParts(real.pca().mean(), std::move(flipped));
  ASSERT_TRUE(pca.ok());
  Result<scoping::LocalModel> edited = scoping::LocalModel::FromParts(
      std::move(pca).value(), real.linkability_range(), real.schema_index());
  ASSERT_TRUE(edited.ok());
  EXPECT_NE(ModelSetFingerprint({models[0], *edited}), base);
  // Order is part of the set's identity.
  EXPECT_NE(ModelSetFingerprint({models[1], models[0]}), base);
}

TEST_F(PipelineCacheTest, MalformedPayloadsAreMissesThatRecompute) {
  ScratchDir dir("pipeline_malformed");
  const pipeline::PipelineRun cold =
      RunWith(scenario_.set, dir.path(), nullptr);

  // Each corruption is rewritten under every signature-block and model
  // key with an intact envelope, so only the payload decoders can catch
  // it.
  const std::vector<std::function<std::string(const std::string&)>>
      corruptions = {
          [](const std::string& p) {
            return WithDouble(p, 1, 0,
                              std::numeric_limits<double>::quiet_NaN());
          },
          [](const std::string& p) {
            return WithDouble(p, 1, 0,
                              -std::numeric_limits<double>::infinity());
          },
          [](const std::string& p) { return p.substr(0, p.size() - 3); },
          [](const std::string& p) { return p + "x"; },
          [](const std::string& p) {
            return "colscope-garbage v1" + p.substr(p.find('\n'));
          },
      };
  for (size_t c = 0; c < corruptions.size(); ++c) {
    ArtifactCache cache = OpenOrDie(MakeOptions(dir.path()));
    size_t rewritten = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir.path())) {
      if (entry.path().extension() != ".art") continue;
      const std::string contents = ReadFile(entry.path().string());
      const size_t key_at = contents.find("\nkey ") + 5;
      const std::string text =
          contents.substr(key_at, contents.find('\n', key_at) - key_at);
      if (!StartsWith(text, "sig|") && !StartsWith(text, "model|")) continue;
      const CacheKey key{text, Checksum64(text)};
      Result<std::string> payload = cache.Get(key);
      ASSERT_TRUE(payload.ok());
      ASSERT_TRUE(cache.Put(key, corruptions[c](*payload)).ok());
      ++rewritten;
    }
    ASSERT_EQ(rewritten, 8u);  // 4 signature blocks + 4 models.

    obs::MetricsRegistry metrics;
    const pipeline::PipelineRun warm =
        RunWith(scenario_.set, dir.path(), &metrics);
    // The envelopes are intact, but a payload its decoder rejects is a
    // corrupt miss, not a hit: 8 misses, and the 10 untouched keep and
    // similarity-block entries hit. Each rejected payload is recomputed
    // and written back, and no run fails.
    EXPECT_EQ(CounterValue(metrics, "cache.misses"), rewritten) << c;
    EXPECT_EQ(CounterValue(metrics, "cache.corrupt"), rewritten) << c;
    EXPECT_EQ(CounterValue(metrics, "cache.hits"), 10u) << c;
    EXPECT_EQ(CounterValue(metrics, "cache.writes"), rewritten) << c;
    EXPECT_EQ(cold.signatures.signatures.data(),
              warm.signatures.signatures.data());
    EXPECT_EQ(cold.keep, warm.keep);
    EXPECT_EQ(cold.linkages, warm.linkages);
    ASSERT_EQ(cold.local_models.size(), warm.local_models.size());
    for (size_t s = 0; s < cold.local_models.size(); ++s) {
      EXPECT_EQ(EncodeModelBlock(cold.local_models[s]),
                EncodeModelBlock(warm.local_models[s]));
    }
  }
}

// ---- Seeded mutation pass over the cache decoders. ----

/// Silences the per-entry "unusable; recomputing" warnings of a pass
/// that corrupts entries by the thousand.
class QuietLog {
 public:
  QuietLog() : saved_(obs::Logger::Global().level()) {
    obs::Logger::Global().set_level(obs::LogLevel::kError);
  }
  ~QuietLog() { obs::Logger::Global().set_level(saved_); }

 private:
  obs::LogLevel saved_;
};

void RunDecoderMutationPass(int rounds, uint64_t seed) {
  const QuietLog quiet;
  // Small payloads, so header mutations are frequent.
  const linalg::Matrix rows = EdgeMatrix(3, 5);
  const std::string sig = EncodeSigBlock(rows);
  const std::string model = EncodeModelBlock(EdgeModel(5, 2, 0.75));
  const std::string keep =
      scoping::SerializeKeepMask({true, false, true, true, false, true});
  const std::set<matching::ElementPair> pairs = {
      matching::MakePair({0, 0, -1}, {1, 2, -1}),
      matching::MakePair({0, 0, 1}, {1, 2, 3}),
      matching::MakePair({0, 4, 0}, {1, 0, 12})};
  const std::string sim = EncodeSimBlock(pairs, 0);
  const size_t sig_header = sig.size() - rows.data().size() * sizeof(double);
  const size_t model_header = model.size() - (1 + 5 + 2 * 5) * sizeof(double);

  MutationPass("sig", sig, sig_header, rounds, seed,
               [](const std::string& in) -> std::optional<std::string> {
                 linalg::Matrix out(3, 5);
                 if (!DecodeSigBlock(in, 3, 5, out.data())) return {};
                 return EncodeSigBlock(out);
               });
  MutationPass("model", model, model_header, rounds, seed + 1,
               [](const std::string& in) -> std::optional<std::string> {
                 Result<scoping::LocalModel> out = DecodeModelBlock(in, 0);
                 if (!out.ok()) return {};
                 return EncodeModelBlock(*out);
               });
  MutationPass("keep", keep, keep.size(), rounds, seed + 2,
               [](const std::string& in) -> std::optional<std::string> {
                 Result<std::vector<bool>> out =
                     scoping::DeserializeKeepMask(in);
                 if (!out.ok()) return {};
                 return scoping::SerializeKeepMask(*out);
               });
  MutationPass("simblock", sim, sim.size(), rounds, seed + 3,
               [](const std::string& in) -> std::optional<std::string> {
                 auto out = DecodeSimBlock(in, 0, 1);
                 if (!out) return {};
                 return EncodeSimBlock(*out, 0);
               });

  // Whole entry files: Get either misses or returns a payload whose
  // envelope, as Put writes it, is exactly the mutated file.
  ScratchDir dir("mutation_entries");
  ArtifactCache cache = OpenOrDie(MakeOptions(dir.path()));
  const CacheKey key =
      CacheKeyBuilder("sig").AddHex("src", 0x5eed).Build();
  ASSERT_TRUE(cache.Put(key, sig).ok());
  const std::string path = cache.PathFor(key);
  const std::string entry = ReadFile(path);
  MutationPass("entry", entry, entry.size() - sig.size(), rounds, seed + 4,
               [&](const std::string& in) -> std::optional<std::string> {
                 WriteFile(path, in);
                 Result<std::string> got = cache.Get(key);
                 if (!got.ok()) {
                   EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
                   return {};
                 }
                 EXPECT_TRUE(cache.Put(key, *got).ok());
                 return ReadFile(path);
               });
}

TEST(PayloadMutationTest, SeededShortPass) {
  RunDecoderMutationPass(/*rounds=*/400, /*seed=*/0xc0ffee);
}

// The long pass runs in the ASan/UBSan lane (tools/run_sanitized_tests.sh
// passes --gtest_also_run_disabled_tests); tier-1 runs the short one.
TEST(PayloadMutationTest, DISABLED_SeededLongPass) {
  RunDecoderMutationPass(/*rounds=*/20000, /*seed=*/0x5eed5eed);
}

}  // namespace
}  // namespace colscope::cache
