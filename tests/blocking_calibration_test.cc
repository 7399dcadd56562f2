#include <gtest/gtest.h>

#include "datasets/oc3.h"
#include "embed/hashed_encoder.h"
#include "matching/sim.h"
#include "matching/token_blocking.h"
#include "scoping/signatures.h"

namespace colscope {
namespace {

// --- Token blocking -----------------------------------------------------------

class TokenBlockingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = datasets::BuildOc3Scenario();
    signatures_ = scoping::BuildSignatures(scenario_.set, encoder_);
    all_.assign(signatures_.size(), true);
  }
  embed::HashedLexiconEncoder encoder_;
  datasets::MatchingScenario scenario_;
  scoping::SignatureSet signatures_;
  std::vector<bool> all_;
};

TEST_F(TokenBlockingTest, ResultIsSubsetOfSim) {
  const auto blocked =
      matching::TokenBlockedSimMatcher(0.6).Match(signatures_, all_);
  const auto full = matching::SimMatcher(0.6).Match(signatures_, all_);
  for (const auto& pair : blocked) {
    EXPECT_TRUE(full.count(pair))
        << scenario_.set.QualifiedName(pair.first) << " <-> "
        << scenario_.set.QualifiedName(pair.second);
  }
  EXPECT_LE(blocked.size(), full.size());
}

TEST_F(TokenBlockingTest, KeepsTokenSharingPairs) {
  // Identical leading names always share a token, so the II pairs with
  // verbatim names survive blocking.
  const auto blocked =
      matching::TokenBlockedSimMatcher(0.5).Match(signatures_, all_);
  auto a = scenario_.set.Resolve("OC-Oracle", "PRODUCTS.PRODUCT_ID");
  auto b = scenario_.set.Resolve("OC-HANA", "PRODUCTS.PRODUCT_ID");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(blocked.count(matching::MakePair(*a, *b)));
}

TEST_F(TokenBlockingTest, DrasticallyFewerComparisons) {
  const size_t candidates =
      matching::TokenBlockedSimMatcher::CandidateCount(signatures_, all_);
  const size_t cartesian =
      matching::SimMatcher::ComparisonCount(signatures_, all_);
  EXPECT_LT(candidates * 3, cartesian);  // At least 3x fewer comparisons.
  EXPECT_GT(candidates, 0u);
}

TEST_F(TokenBlockingTest, RespectsMaskAndName) {
  const std::vector<bool> none(signatures_.size(), false);
  EXPECT_TRUE(
      matching::TokenBlockedSimMatcher(0.0).Match(signatures_, none).empty());
  EXPECT_EQ(matching::TokenBlockedSimMatcher(0.6).name(), "TBSIM(0.6)");
}

}  // namespace
}  // namespace colscope
