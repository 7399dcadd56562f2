#include <gtest/gtest.h>

#include "datasets/toy.h"
#include "embed/hashed_encoder.h"
#include "matching/cupid.h"
#include "scoping/signatures.h"

namespace colscope {
namespace {

class CupidFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = datasets::BuildToyScenario();
    signatures_ = scoping::BuildSignatures(scenario_.set, encoder_);
    all_.assign(signatures_.size(), true);
  }
  int Row(const char* schema, const char* path) {
    auto ref = scenario_.set.Resolve(schema, path);
    EXPECT_TRUE(ref.ok());
    return scenario_.set.IndexOf(*ref);
  }
  embed::HashedLexiconEncoder encoder_;
  datasets::MatchingScenario scenario_;
  scoping::SignatureSet signatures_;
  std::vector<bool> all_;
};

// --- CUPID -------------------------------------------------------------------

TEST_F(CupidFixture, IdenticalNameAndParentScoresHigh) {
  matching::CupidMatcher cupid;
  // CID under CLIENT vs CID under CUSTOMER: lsim = 1, parent ssim high
  // enough to clear 0.7 with w=0.5.
  const double wsim = cupid.WeightedSimilarity(
      signatures_, all_, Row("S1", "CLIENT.CID"), Row("S2", "CUSTOMER.CID"));
  EXPECT_GT(wsim, 0.7);
}

TEST_F(CupidFixture, StructuralWeightDiscriminatesParents) {
  // CNAME(CONTACTS) vs CNAME(CAR): identical names, different parents —
  // the structural component must pull the CAR pair below the CONTACTS
  // analogue paired with a closer parent.
  matching::CupidMatcher::Options options;
  options.structural_weight = 0.5;
  matching::CupidMatcher cupid(options);
  const double with_car = cupid.WeightedSimilarity(
      signatures_, all_, Row("S3", "CONTACTS.CNAME"), Row("S4", "CAR.CNAME"));
  // Same-name pair under structurally similar parents (CLIENT/CUSTOMER
  // share CID etc.): compare CID pairs as the reference.
  const double with_customer = cupid.WeightedSimilarity(
      signatures_, all_, Row("S1", "CLIENT.CID"), Row("S2", "CUSTOMER.CID"));
  EXPECT_LT(with_car, 1.0);
  EXPECT_GT(with_customer, 0.0);
  // Pure-linguistic configuration removes the parent signal entirely.
  matching::CupidMatcher::Options lexical_only;
  lexical_only.structural_weight = 0.0;
  matching::CupidMatcher lexical(lexical_only);
  EXPECT_DOUBLE_EQ(
      lexical.WeightedSimilarity(signatures_, all_,
                                 Row("S3", "CONTACTS.CNAME"),
                                 Row("S4", "CAR.CNAME")),
      1.0);  // The labeling conflict CUPID's wstruct is meant to dampen.
}

TEST_F(CupidFixture, TableSimilarityUsesLeafPropagation) {
  matching::CupidMatcher cupid;
  // CLIENT vs SHIPMENTS share two leaf names (CID, ADDRESS) and are a
  // true sub-typed pair; CUSTOMER vs CAR share only CID. Leaf-up
  // propagation must rank the former above the latter.
  const double shared_leaves = cupid.WeightedSimilarity(
      signatures_, all_, Row("S1", "CLIENT"), Row("S2", "SHIPMENTS"));
  const double weak_overlap = cupid.WeightedSimilarity(
      signatures_, all_, Row("S2", "CUSTOMER"), Row("S4", "CAR"));
  EXPECT_GT(shared_leaves, weak_overlap);
  // Note CUPID's known blind spot (and the paper's motivation for
  // semantic signatures): CONTACTS-CAR outranks CLIENT-CUSTOMER here
  // because CID/CNAME are lexically identical while CLIENT/CUSTOMER are
  // only synonyms — the labeling conflict of Section 2.2.
  const double synonym_pair = cupid.WeightedSimilarity(
      signatures_, all_, Row("S1", "CLIENT"), Row("S2", "CUSTOMER"));
  const double lexical_trap = cupid.WeightedSimilarity(
      signatures_, all_, Row("S3", "CONTACTS"), Row("S4", "CAR"));
  EXPECT_GT(lexical_trap, synonym_pair);
}

TEST_F(CupidFixture, MatchEmitsValidPairsAboveThreshold) {
  matching::CupidMatcher::Options options;
  options.threshold = 0.75;
  matching::CupidMatcher cupid(options);
  const auto pairs = cupid.Match(signatures_, all_);
  EXPECT_FALSE(pairs.empty());
  size_t true_pairs = 0;
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(a.schema, b.schema);
    EXPECT_EQ(a.is_table(), b.is_table());
    true_pairs += scenario_.truth.ContainsPair(a, b);
  }
  EXPECT_GT(true_pairs, 0u);
  EXPECT_EQ(cupid.name(), "CUPID(0.8,w=0.5)");
}

TEST_F(CupidFixture, ThresholdMonotone) {
  matching::CupidMatcher::Options loose_options;
  loose_options.threshold = 0.6;
  matching::CupidMatcher::Options strict_options;
  strict_options.threshold = 0.9;
  const auto loose =
      matching::CupidMatcher(loose_options).Match(signatures_, all_);
  const auto strict =
      matching::CupidMatcher(strict_options).Match(signatures_, all_);
  EXPECT_LE(strict.size(), loose.size());
  for (const auto& pair : strict) EXPECT_TRUE(loose.count(pair));
}

}  // namespace
}  // namespace colscope
