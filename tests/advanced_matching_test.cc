// Tests for the self-tuned cluster matcher: the silhouette score that picks
// k (ALITE-style) and ClusterMatcher(0), which the CLI reaches through
// `--matcher cluster --param 0`.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/toy.h"
#include "embed/hashed_encoder.h"
#include "matching/cluster_matcher.h"
#include "matching/silhouette.h"
#include "scoping/signatures.h"

namespace colscope::matching {
namespace {

using linalg::Matrix;

// --- Silhouette -------------------------------------------------------------

Matrix TwoBlobs(size_t per_blob, double separation, uint64_t seed) {
  Rng rng(seed);
  Matrix m(2 * per_blob, 2);
  for (size_t i = 0; i < per_blob; ++i) {
    m(i, 0) = 0.1 * rng.NextGaussian();
    m(i, 1) = 0.1 * rng.NextGaussian();
    m(per_blob + i, 0) = separation + 0.1 * rng.NextGaussian();
    m(per_blob + i, 1) = separation + 0.1 * rng.NextGaussian();
  }
  return m;
}

TEST(SilhouetteTest, PerfectClusteringScoresHigh) {
  Matrix m = TwoBlobs(10, 10.0, 1);
  std::vector<size_t> good(20, 0);
  for (size_t i = 10; i < 20; ++i) good[i] = 1;
  EXPECT_GT(MeanSilhouette(m, good), 0.9);
}

TEST(SilhouetteTest, ScrambledClusteringScoresLow) {
  Matrix m = TwoBlobs(10, 10.0, 2);
  std::vector<size_t> bad(20);
  for (size_t i = 0; i < 20; ++i) bad[i] = i % 2;  // Mixes the blobs.
  EXPECT_LT(MeanSilhouette(m, bad), 0.1);
}

TEST(SilhouetteTest, SingleClusterIsZero) {
  Matrix m = TwoBlobs(5, 4.0, 3);
  EXPECT_DOUBLE_EQ(MeanSilhouette(m, std::vector<size_t>(10, 0)), 0.0);
}

TEST(SilhouetteTest, TinyInputs) {
  EXPECT_DOUBLE_EQ(MeanSilhouette(Matrix(), {}), 0.0);
  EXPECT_DOUBLE_EQ(MeanSilhouette(Matrix(1, 2, 0.0), {0}), 0.0);
}

TEST(SilhouetteTest, BestKFindsTwoBlobs) {
  Matrix m = TwoBlobs(12, 10.0, 4);
  EXPECT_EQ(SilhouetteBestK(m, 2, 8), 2u);
}

TEST(SilhouetteTest, BestKFindsFourBlobs) {
  Rng rng(5);
  Matrix m(40, 2);
  const double centers[4][2] = {{0, 0}, {10, 0}, {0, 10}, {10, 10}};
  for (size_t i = 0; i < 40; ++i) {
    m(i, 0) = centers[i % 4][0] + 0.1 * rng.NextGaussian();
    m(i, 1) = centers[i % 4][1] + 0.1 * rng.NextGaussian();
  }
  EXPECT_EQ(SilhouetteBestK(m, 2, 8), 4u);
}

TEST(AutoClusterMatcherTest, RunsEndToEnd) {
  auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  const std::vector<bool> all(signatures.size(), true);
  ClusterMatcher auto_k(0);
  EXPECT_EQ(auto_k.name(), "CLUSTER(auto)");
  const auto pairs = auto_k.Match(signatures, all);
  EXPECT_FALSE(pairs.empty());
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(a.schema, b.schema);
    EXPECT_EQ(a.is_table(), b.is_table());
  }
}

}  // namespace
}  // namespace colscope::matching
