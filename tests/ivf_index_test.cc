// Tests for the IVF index and matcher: the (distance, id) tie-break both
// indexes share, exactness in the degenerate configurations, the
// recall floor at the documented nprobe, sub-linear probing, and
// determinism across runs and thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datasets/synthetic_corpus.h"
#include "embed/hashed_encoder.h"
#include "linalg/stats.h"
#include "matching/flat_index.h"
#include "matching/ivf_index.h"
#include "matching/token_blocking.h"
#include "scoping/signatures.h"

namespace colscope::matching {
namespace {

linalg::Matrix RandomVectors(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(n, dims);
  for (double& v : m.data()) v = rng.NextGaussian();
  return m;
}

scoping::SignatureSet CorpusSignatures(size_t num_schemas,
                                       datasets::MatchingScenario* scenario) {
  datasets::CorpusOptions options;
  options.num_schemas = num_schemas;
  options.tables_per_schema = 4;
  options.attrs_per_table = 8;
  options.seed = 77;
  *scenario = datasets::BuildCorpusScenario(options);
  embed::HashedLexiconEncoder encoder;
  return scoping::BuildSignatures(scenario->set, encoder);
}

// Every index ranks through RankNearest: equal distances order by
// ascending id, on the exact path and through the int8 prescan. The
// matrix holds `kBase` distinct rows, each `kCopies` times: row r is
// distinct row r % kBase, so every id at one distance is a tie.
TEST(RankingTieBreakTest, EveryIndexReturnsTiedIdsAscending) {
  constexpr size_t kBase = 6;
  constexpr size_t kCopies = 4;
  const linalg::Matrix distinct = RandomVectors(kBase, 16, 11);
  std::vector<size_t> rows;
  for (size_t r = 0; r < kBase * kCopies; ++r) rows.push_back(r % kBase);
  const linalg::Matrix vectors = linalg::GatherRows(distinct, rows);
  const std::span<const double> query = distinct.RowSpan(2);

  // Distinct rows by distance to the query, each expanded to its copies
  // in ascending id order.
  std::vector<size_t> by_distance(kBase);
  std::iota(by_distance.begin(), by_distance.end(), 0);
  std::sort(by_distance.begin(), by_distance.end(), [&](size_t a, size_t b) {
    return linalg::SquaredL2Distance(distinct.RowSpan(a), query) <
           linalg::SquaredL2Distance(distinct.RowSpan(b), query);
  });
  std::vector<size_t> ranking;
  for (size_t b : by_distance) {
    for (size_t c = 0; c < kCopies; ++c) ranking.push_back(b + c * kBase);
  }

  // k covers one tie group exactly, then cuts into the next one.
  for (size_t k : {kCopies, kCopies + 2}) {
    SCOPED_TRACE(k);
    const std::vector<size_t> want(ranking.begin(), ranking.begin() + k);
    EXPECT_EQ(FlatL2Index(vectors).Search(query, k), want);
    // rescore_factor 1 makes the int8 prescan choose the rescored rows.
    const FlatL2Index flat_int8(
        vectors, FlatL2Index::Options{.quantized = true, .rescore_factor = 1});
    EXPECT_EQ(flat_int8.Search(query, k), want);
    for (size_t num_lists : {size_t{1}, size_t{0}}) {
      SCOPED_TRACE(num_lists);
      IvfIndex::Options options;
      options.num_lists = num_lists;
      EXPECT_EQ(IvfIndex(vectors, options).Search(query, k), want);
      options.quantized = true;
      options.rescore_factor = 1;
      EXPECT_EQ(IvfIndex(vectors, options).Search(query, k), want);
    }
  }
}

TEST(IvfIndexTest, SingleListIsExactFlatSearch) {
  const linalg::Matrix vectors = RandomVectors(200, 16, 1);
  const FlatL2Index flat(vectors);
  IvfIndex::Options options;
  options.num_lists = 1;
  const IvfIndex ivf(vectors, options);
  for (uint64_t q = 0; q < 10; ++q) {
    const linalg::Vector query = RandomVectors(1, 16, 100 + q).Row(0);
    EXPECT_EQ(ivf.Search(query, 7), flat.Search(query, 7));
  }
}

TEST(IvfIndexTest, ProbingEveryListIsExact) {
  const linalg::Matrix vectors = RandomVectors(300, 12, 2);
  const FlatL2Index flat(vectors);
  IvfIndex::Options options;
  options.num_lists = 10;
  options.nprobe = 10;
  const IvfIndex ivf(vectors, options);
  for (uint64_t q = 0; q < 10; ++q) {
    const linalg::Vector query = RandomVectors(1, 12, 200 + q).Row(0);
    EXPECT_EQ(ivf.Search(query, 5), flat.Search(query, 5));
  }
}

TEST(IvfIndexTest, SearchIsDeterministicAndRespectsK) {
  const linalg::Matrix vectors = RandomVectors(150, 8, 3);
  IvfIndex::Options options;
  options.nprobe = 3;
  const IvfIndex ivf(vectors, options);
  const linalg::Vector query = RandomVectors(1, 8, 999).Row(0);
  const auto first = ivf.Search(query, 9);
  EXPECT_EQ(first.size(), 9u);
  EXPECT_EQ(first, ivf.Search(query, 9));
  // k larger than the index never overruns.
  EXPECT_LE(ivf.Search(query, 1000).size(), ivf.size());
}

TEST(IvfIndexTest, QuantizedWithLargeRescorePoolMatchesExactRanking) {
  const linalg::Matrix vectors = RandomVectors(250, 24, 4);
  IvfIndex::Options exact_options;
  exact_options.num_lists = 8;
  exact_options.nprobe = 4;
  const IvfIndex exact(vectors, exact_options);
  IvfIndex::Options quantized_options = exact_options;
  quantized_options.quantized = true;
  // A rescore pool covering every probed row makes the int8 prescan a
  // pure reordering that the exact rescoring fully undoes.
  quantized_options.rescore_factor = 1000;
  const IvfIndex quantized(vectors, quantized_options);
  ASSERT_TRUE(quantized.quantized());
  for (uint64_t q = 0; q < 10; ++q) {
    const linalg::Vector query = RandomVectors(1, 24, 300 + q).Row(0);
    EXPECT_EQ(quantized.Search(query, 6), exact.Search(query, 6));
  }
}

TEST(IvfIndexTest, PooledBuildMatchesSerialBuild) {
  datasets::MatchingScenario scenario;
  const auto signatures = CorpusSignatures(6, &scenario);
  IvfIndex::Options options;
  for (bool quantized : {false, true}) {
    options.quantized = quantized;
    const IvfIndex serial(signatures.signatures, options);
    for (size_t threads : {2u, 4u}) {
      ThreadPool pool(threads);
      const IvfIndex pooled(signatures.signatures, options, &pool);
      ASSERT_EQ(pooled.num_lists(), serial.num_lists());
      for (size_t i = 0; i < signatures.size(); i += 7) {
        const std::span<const double> query =
            signatures.signatures.RowSpan(i);
        for (size_t k : {1u, 10u, 40u}) {
          for (size_t nprobe : {1u, 3u, 8u}) {
            SCOPED_TRACE(::testing::Message()
                         << "quantized=" << quantized << " threads="
                         << threads << " row=" << i << " k=" << k
                         << " nprobe=" << nprobe);
            EXPECT_EQ(pooled.Search(query, k, nprobe),
                      serial.Search(query, k, nprobe));
          }
        }
      }
    }
  }
}

TEST(IvfIndexTest, ProbingIsSubLinear) {
  datasets::MatchingScenario scenario;
  const auto signatures = CorpusSignatures(8, &scenario);
  const size_t n = signatures.size();
  const IvfIndex ivf(signatures.signatures);  // auto lists ~ sqrt(n).
  ASSERT_GT(ivf.num_lists(), 8u);
  size_t probed = 0;
  for (size_t i = 0; i < n; ++i) {
    probed += ivf.ProbedRows(signatures.signatures.RowSpan(i), 10,
                             ivf.nprobe());
  }
  const double mean_fraction =
      static_cast<double>(probed) / (static_cast<double>(n) * n);
  EXPECT_GT(mean_fraction, 0.0);
  EXPECT_LT(mean_fraction, 0.7);
}

TEST(IvfIndexTest, RecallAtTenMeetsFloorAtDocumentedNprobe) {
  datasets::MatchingScenario scenario;
  const auto signatures = CorpusSignatures(6, &scenario);
  const size_t n = signatures.size();
  const FlatL2Index flat(signatures.signatures);
  const IvfIndex ivf(signatures.signatures);  // defaults: nprobe = 8.
  size_t hits = 0;
  size_t wanted = 0;
  for (size_t i = 0; i < n; ++i) {
    const linalg::Vector query = signatures.signatures.Row(i);
    const auto exact = flat.Search(query, 10);
    const auto approx = ivf.Search(query, 10);
    const std::set<size_t> approx_set(approx.begin(), approx.end());
    wanted += exact.size();
    for (size_t id : exact) hits += approx_set.count(id);
  }
  // The invariant gated in BENCH_corpus_scale.json (docs/SCALING.md).
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(wanted), 0.95);
}

TEST(IvfMatcherTest, FlatDegenerateEqualsFullProbe) {
  datasets::MatchingScenario scenario;
  const auto signatures = CorpusSignatures(4, &scenario);
  const std::vector<bool> active(signatures.size(), true);
  IvfMatcher::Options flat_options;
  flat_options.num_lists = 1;
  IvfMatcher::Options full_options;
  full_options.num_lists = 8;
  full_options.nprobe = 8;  // Probes every list -> exact as well.
  const auto flat = IvfMatcher(flat_options).Match(signatures, active);
  const auto full = IvfMatcher(full_options).Match(signatures, active);
  EXPECT_EQ(flat, full);
  EXPECT_GT(flat.size(), 0u);
}

TEST(IvfMatcherTest, DeterministicAcrossRunsAndThreadCounts) {
  datasets::MatchingScenario scenario;
  const auto signatures = CorpusSignatures(5, &scenario);
  const std::vector<bool> active(signatures.size(), true);
  IvfMatcher::Options options;
  options.nprobe = 4;
  const IvfMatcher serial(options);
  const auto baseline = serial.Match(signatures, active);
  EXPECT_EQ(baseline, serial.Match(signatures, active));
  ThreadPool pool(4);
  const IvfMatcher parallel(options, &pool);
  EXPECT_EQ(baseline, parallel.Match(signatures, active));
}

TEST(IvfMatcherTest, RespectsActiveMaskAndCandidateContract) {
  datasets::MatchingScenario scenario;
  const auto signatures = CorpusSignatures(4, &scenario);
  std::vector<bool> active(signatures.size(), true);
  for (size_t i = 0; i < active.size(); i += 3) active[i] = false;
  IvfMatcher::Options options;
  const auto result = IvfMatcher(options).Match(signatures, active);
  for (const auto& [a, b] : result) {
    const int ia = scenario.set.IndexOf(a);
    const int ib = scenario.set.IndexOf(b);
    ASSERT_GE(ia, 0);
    ASSERT_GE(ib, 0);
    EXPECT_TRUE(active[static_cast<size_t>(ia)]);
    EXPECT_TRUE(active[static_cast<size_t>(ib)]);
    EXPECT_NE(a.schema, b.schema);
    EXPECT_EQ(a.is_table(), b.is_table());
  }
}

TEST(IvfMatcherTest, TokenPrefilterKeepsOnlySharedTokenPairs) {
  datasets::MatchingScenario scenario;
  const auto signatures = CorpusSignatures(4, &scenario);
  const std::vector<bool> active(signatures.size(), true);
  IvfMatcher::Options options;
  options.token_prefilter = true;
  const auto result = IvfMatcher(options).Match(signatures, active);
  const auto allowed = TokenBlockingCandidates(signatures, active);
  EXPECT_GT(result.size(), 0u);
  for (const auto& [a, b] : result) {
    const size_t ia = static_cast<size_t>(scenario.set.IndexOf(a));
    const size_t ib = static_cast<size_t>(scenario.set.IndexOf(b));
    EXPECT_TRUE(allowed.count({std::min(ia, ib), std::max(ia, ib)}) > 0);
  }
}

}  // namespace
}  // namespace colscope::matching
