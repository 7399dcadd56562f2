#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datasets/oc3.h"
#include "datasets/toy.h"
#include "embed/hashed_encoder.h"
#include "linalg/stats.h"
#include "matching/cluster_matcher.h"
#include "matching/flat_index.h"
#include "matching/kmeans.h"
#include "matching/lsh_matcher.h"
#include "matching/sim.h"
#include "matching/token_blocking.h"

namespace colscope::matching {
namespace {

using linalg::Matrix;
using linalg::Vector;

class MatchingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = datasets::BuildToyScenario();
    signatures_ = scoping::BuildSignatures(scenario_.set, encoder_);
    all_active_.assign(signatures_.size(), true);
  }

  bool Contains(const std::set<ElementPair>& pairs, const char* schema_a,
                const char* path_a, const char* schema_b,
                const char* path_b) {
    auto a = scenario_.set.Resolve(schema_a, path_a);
    auto b = scenario_.set.Resolve(schema_b, path_b);
    EXPECT_TRUE(a.ok() && b.ok());
    return pairs.count(MakePair(*a, *b)) > 0;
  }

  embed::HashedLexiconEncoder encoder_;
  datasets::MatchingScenario scenario_;
  scoping::SignatureSet signatures_;
  std::vector<bool> all_active_;
};

// --- k-Means ------------------------------------------------------------------

TEST(KMeansTest, SeparatesTwoClusters) {
  Matrix points(8, 2);
  for (size_t i = 0; i < 4; ++i) {
    points(i, 0) = 0.0 + 0.01 * static_cast<double>(i);
    points(i, 1) = 0.0;
    points(i + 4, 0) = 10.0 + 0.01 * static_cast<double>(i);
    points(i + 4, 1) = 10.0;
  }
  KMeansOptions options;
  options.k = 2;
  const auto assign = KMeansCluster(points, options).assignment;
  ASSERT_EQ(assign.size(), 8u);
  for (size_t i = 1; i < 4; ++i) EXPECT_EQ(assign[i], assign[0]);
  for (size_t i = 5; i < 8; ++i) EXPECT_EQ(assign[i], assign[4]);
  EXPECT_NE(assign[0], assign[4]);
}

TEST(KMeansTest, KLargerThanNClamps) {
  Matrix points(3, 2);
  points(1, 0) = 1.0;
  points(2, 0) = 2.0;
  KMeansOptions options;
  options.k = 10;
  const auto assign = KMeansCluster(points, options).assignment;
  for (size_t a : assign) EXPECT_LT(a, 3u);
}

TEST(KMeansTest, DeterministicForSeed) {
  Rng rng(3);
  Matrix points(30, 4);
  for (double& v : points.data()) v = rng.NextGaussian();
  KMeansOptions options;
  options.k = 4;
  EXPECT_EQ(KMeansCluster(points, options).assignment,
            KMeansCluster(points, options).assignment);
}

void ExpectSameKMeans(const KMeansResult& got, const KMeansResult& want) {
  EXPECT_EQ(got.assignment, want.assignment);
  ASSERT_EQ(got.centroids.rows(), want.centroids.rows());
  ASSERT_EQ(got.centroids.cols(), want.centroids.cols());
  for (size_t i = 0; i < want.centroids.data().size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got.centroids.data()[i]),
              std::bit_cast<uint64_t>(want.centroids.data()[i]))
        << "centroid value " << i;
  }
}

/// Runs `points` through KMeansCluster without a pool and on pools of
/// 1, 2 and 4 threads, at 1 and 25 Lloyd iterations; every pooled
/// result must carry the serial bits. Returns the serial 25-iteration
/// result.
KMeansResult ExpectPooledKMeansIdentical(const Matrix& points, size_t k) {
  KMeansResult serial;
  for (int iterations : {1, 25}) {
    KMeansOptions options;
    options.k = k;
    options.max_iterations = iterations;
    serial = KMeansCluster(points, options);
    for (size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << points.rows() << " d=" << points.cols()
                   << " k=" << k << " iterations=" << iterations
                   << " threads=" << threads);
      ThreadPool pool(threads);
      ExpectSameKMeans(KMeansCluster(points, options, &pool), serial);
    }
  }
  return serial;
}

TEST(KMeansTest, PooledRunIsBitIdenticalToSerial) {
  Rng rng(19);
  for (size_t d : {3u, 768u}) {
    for (size_t n : {1u, 2u, 31u, 32u, 33u, 101u}) {
      Matrix points(n, d);
      for (double& v : points.data()) v = rng.NextGaussian();
      const size_t sqrt_n = static_cast<size_t>(
          std::lround(std::sqrt(static_cast<double>(n))));
      for (size_t k : std::set<size_t>{1, 2, sqrt_n, n}) {
        ExpectPooledKMeansIdentical(points, k);
      }
    }
  }
}

TEST(KMeansTest, IdenticalPointsAreSafe) {
  // All seeding distances are 0, so the seeding takes its total == 0
  // branch; the pooled run must take it identically.
  const KMeansResult result =
      ExpectPooledKMeansIdentical(Matrix(40, 5, 1.0), 3);
  EXPECT_EQ(result.assignment.size(), 40u);
}

TEST(KMeansTest, PooledRunKeepsAnEmptyClusterWhereItWas) {
  // Three distinct positions and k = 5: once they are seeded the
  // seeding total is 0, so the last two seeds repeat a position, lose
  // every tie to the lower cluster id, and stay empty.
  Matrix points(45, 4);
  for (size_t i = 0; i < points.rows(); ++i) {
    points(i, i % 3) = 10.0;
  }
  const KMeansResult result = ExpectPooledKMeansIdentical(points, 5);
  const std::set<size_t> used(result.assignment.begin(),
                              result.assignment.end());
  ASSERT_EQ(used.size(), 3u);
  for (size_t c = 0; c < 5; ++c) {
    if (used.count(c) > 0) continue;
    // An empty cluster keeps its seed, which is one of the points.
    bool is_point = false;
    for (size_t i = 0; i < 3; ++i) {
      is_point = is_point || std::equal(points.RowPtr(i),
                                        points.RowPtr(i) + points.cols(),
                                        result.centroids.RowPtr(c));
    }
    EXPECT_TRUE(is_point) << "cluster " << c;
  }
}

TEST(KMeansTest, CentroidsAreTheMeansOfTheFinalAssignment) {
  Rng rng(23);
  Matrix points(90, 16);
  for (double& v : points.data()) v = rng.NextGaussian();
  for (int iterations : {1, 2, 25}) {
    KMeansOptions options;
    options.k = 9;
    options.max_iterations = iterations;
    const KMeansResult result = KMeansCluster(points, options);
    Matrix sums(options.k, points.cols());
    std::vector<size_t> counts(options.k, 0);
    for (size_t i = 0; i < points.rows(); ++i) {
      const size_t c = result.assignment[i];
      for (size_t j = 0; j < points.cols(); ++j) sums(c, j) += points(i, j);
      ++counts[c];
    }
    for (size_t c = 0; c < options.k; ++c) {
      if (counts[c] == 0) continue;
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t j = 0; j < points.cols(); ++j) {
        EXPECT_EQ(std::bit_cast<uint64_t>(result.centroids(c, j)),
                  std::bit_cast<uint64_t>(sums(c, j) * inv))
            << "iterations " << iterations << " cluster " << c;
      }
    }
  }
}

// --- FlatL2Index ------------------------------------------------------------------

TEST(FlatIndexTest, ExactNearestNeighbours) {
  Matrix vectors(4, 2);
  vectors(0, 0) = 0.0;
  vectors(1, 0) = 1.0;
  vectors(2, 0) = 2.0;
  vectors(3, 0) = 3.0;
  FlatL2Index index(vectors);
  const auto hits = index.Search(Vector{1.1, 0.0}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 1u);
  EXPECT_EQ(hits[1], 2u);
}

TEST(FlatIndexTest, KLargerThanIndexSize) {
  Matrix vectors(2, 2);
  vectors(1, 0) = 1.0;
  FlatL2Index index(vectors);
  EXPECT_EQ(index.Search(Vector{0.0, 0.0}, 10).size(), 2u);
}

// --- SIM ----------------------------------------------------------------------------

TEST_F(MatchingFixture, SimFindsObviousLinkages) {
  SimMatcher sim(0.6);
  const auto pairs = sim.Match(signatures_, all_active_);
  EXPECT_TRUE(Contains(pairs, "S1", "CLIENT.CID", "S2", "CUSTOMER.CID"));
  EXPECT_TRUE(Contains(pairs, "S1", "CLIENT.NAME", "S3", "CONTACTS.CNAME"));
}

TEST_F(MatchingFixture, SimThresholdMonotone) {
  const auto loose = SimMatcher(0.4).Match(signatures_, all_active_);
  const auto strict = SimMatcher(0.8).Match(signatures_, all_active_);
  EXPECT_LE(strict.size(), loose.size());
  for (const auto& pair : strict) EXPECT_TRUE(loose.count(pair));
}

TEST_F(MatchingFixture, SimRespectsMask) {
  std::vector<bool> mask(signatures_.size(), false);
  const auto pairs = SimMatcher(0.0).Match(signatures_, mask);
  EXPECT_TRUE(pairs.empty());
}

TEST_F(MatchingFixture, SimOnlySameKindCrossSchemaPairs) {
  const auto pairs = SimMatcher(0.0).Match(signatures_, all_active_);
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(a.schema, b.schema);
    EXPECT_EQ(a.is_table(), b.is_table());
  }
}

TEST_F(MatchingFixture, SimComparisonCountMatchesCartesianSameKind) {
  // Tables: S1 x S2 (1*2) + S1 x S3 + S1 x S4 + S2 x S3 (2) + S2 x S4 (2)
  // + S3 x S4 = 1*2+1+1+2+2+1 = 9.
  // Attributes: 4*8 + 4*3 + 4*4 + 8*3 + 8*4 + 3*4 = 32+12+16+24+32+12=128.
  EXPECT_EQ(SimMatcher::ComparisonCount(signatures_, all_active_),
            9u + 128u);
}

TEST(SimDecisionTest, MatchPoolAndBlocksAgreeWithBruteForceCosine) {
  // One decision on every sim path: serial Match, Match on a pool and
  // the union of MatchBlock over every schema pair all equal a
  // brute-force loop over IsCandidate + linalg::CosineSimilarity, here
  // on OC3-FO with a partial mask and an all-zero signature row (whose
  // cosine is 0 with everything, so threshold 0.0 links it).
  const datasets::MatchingScenario scenario = datasets::BuildOc3FoScenario();
  const embed::HashedLexiconEncoder encoder;
  scoping::SignatureSet signatures =
      scoping::BuildSignatures(scenario.set, encoder);
  const size_t n = signatures.size();
  ASSERT_GT(n, 8u);
  std::vector<bool> active(n);
  for (size_t i = 0; i < n; ++i) active[i] = i % 5 != 3;
  const size_t zero_row = 4;
  ASSERT_TRUE(active[zero_row]);
  std::fill_n(signatures.signatures.RowPtr(zero_row),
              signatures.signatures.cols(), 0.0);
  const int num_schemas = static_cast<int>(scenario.set.num_schemas());
  ThreadPool pool(4);
  for (double threshold : {0.0, 0.6, 0.8}) {
    std::set<ElementPair> brute;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (IsCandidate(signatures, active, i, j) &&
            linalg::CosineSimilarity(signatures.signatures.RowSpan(i),
                                     signatures.signatures.RowSpan(j)) >=
                threshold) {
          brute.insert(MakePair(signatures.refs[i], signatures.refs[j]));
        }
      }
    }
    ASSERT_FALSE(brute.empty()) << threshold;
    const SimMatcher serial(threshold);
    const SimMatcher pooled(threshold, &pool);
    EXPECT_EQ(serial.Match(signatures, active), brute) << threshold;
    EXPECT_EQ(pooled.Match(signatures, active), brute) << threshold;
    std::set<ElementPair> blocks;
    for (int a = 0; a < num_schemas; ++a) {
      for (int b = a + 1; b < num_schemas; ++b) {
        const std::set<ElementPair> block =
            serial.MatchBlock(signatures, active, a, b);
        blocks.insert(block.begin(), block.end());
      }
    }
    EXPECT_EQ(blocks, brute) << threshold;
    if (threshold == 0.0) {
      EXPECT_TRUE(std::any_of(brute.begin(), brute.end(), [&](const auto& p) {
        return p.first == signatures.refs[zero_row] ||
               p.second == signatures.refs[zero_row];
      })) << "the zero row links at threshold 0";
    }
    const TokenBlockedSimMatcher exact(threshold);
    const TokenBlockedSimMatcher quantized(threshold, /*quantized=*/true);
    EXPECT_EQ(quantized.Match(signatures, active),
              exact.Match(signatures, active))
        << threshold;
  }
}

// --- CLUSTER ---------------------------------------------------------------------------

TEST_F(MatchingFixture, ClusterMatcherProducesValidPairs) {
  ClusterMatcher cluster(2);
  const auto pairs = cluster.Match(signatures_, all_active_);
  EXPECT_FALSE(pairs.empty());
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(a.schema, b.schema);
    EXPECT_EQ(a.is_table(), b.is_table());
  }
}

TEST_F(MatchingFixture, MoreClustersFewerPairs) {
  const auto few = ClusterMatcher(2).Match(signatures_, all_active_);
  const auto many = ClusterMatcher(20).Match(signatures_, all_active_);
  EXPECT_LE(many.size(), few.size());
}

// --- LSH ------------------------------------------------------------------------------

TEST_F(MatchingFixture, LshTopOneFindsIdenticalCounterpart) {
  LshMatcher lsh(1);
  const auto pairs = lsh.Match(signatures_, all_active_);
  EXPECT_TRUE(Contains(pairs, "S1", "CLIENT.CID", "S2", "CUSTOMER.CID") ||
              Contains(pairs, "S1", "CLIENT.CID", "S3", "CONTACTS.CID"));
}

TEST_F(MatchingFixture, LshLargerKMorePairs) {
  const auto k1 = LshMatcher(1).Match(signatures_, all_active_);
  const auto k5 = LshMatcher(5).Match(signatures_, all_active_);
  EXPECT_GE(k5.size(), k1.size());
}

TEST_F(MatchingFixture, LshRespectsMask) {
  // Deactivate all of S4: no pair may involve schema 3.
  std::vector<bool> mask = all_active_;
  for (size_t i = 0; i < signatures_.size(); ++i) {
    if (signatures_.refs[i].schema == 3) mask[i] = false;
  }
  const auto pairs = LshMatcher(5).Match(signatures_, mask);
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(a.schema, 3);
    EXPECT_NE(b.schema, 3);
  }
}

TEST_F(MatchingFixture, MatcherNames) {
  EXPECT_EQ(SimMatcher(0.6).name(), "SIM(0.6)");
  EXPECT_EQ(ClusterMatcher(5).name(), "CLUSTER(5)");
  EXPECT_EQ(LshMatcher(20).name(), "LSH(20)");
  EXPECT_EQ(LshMatcher(2, /*quantized=*/true).name(), "LSH(2)");
}

}  // namespace
}  // namespace colscope::matching
