#include "cache/artifact_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cache/pipeline_cache.h"
#include "common/checksum.h"
#include "datasets/toy.h"
#include "embed/hashed_encoder.h"
#include "matching/sim.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "schema/fingerprint.h"

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
  EXPECT_EQ(key.hash, Fnv1a64(key.text));
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
  ScratchDir dir("version");
  std::filesystem::create_directories(dir.path());
  std::ofstream(dir.path() + "/CACHE_VERSION") << "colscope-cache v999\n";
  Result<ArtifactCache> cache = ArtifactCache::Open(MakeOptions(dir.path()));
  ASSERT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), StatusCode::kFailedPrecondition);
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

}  // namespace
}  // namespace colscope::cache
