// Parameterized round-trip and cross-module consistency properties over
// generated schemas: WriteDdl/ParseDdl inversion, serialization +
// signature alignment, and matcher/mask invariants, swept across
// generator seeds.

#include <gtest/gtest.h>

#include "datasets/synthetic.h"
#include "datasets/synthetic_corpus.h"
#include "embed/hashed_encoder.h"
#include "matching/lsh_matcher.h"
#include "schema/ddl_parser.h"
#include "schema/ddl_writer.h"
#include "scoping/collaborative.h"
#include "scoping/signatures.h"
#include "scoping/streamline.h"

namespace colscope {
namespace {

void ExpectSchemaEqual(const schema::Schema& a, const schema::Schema& b) {
  ASSERT_EQ(a.num_tables(), b.num_tables());
  for (size_t t = 0; t < a.tables().size(); ++t) {
    const auto& ta = a.tables()[t];
    const auto& tb = b.tables()[t];
    EXPECT_EQ(ta.name, tb.name);
    ASSERT_EQ(ta.attributes.size(), tb.attributes.size()) << ta.name;
    for (size_t i = 0; i < ta.attributes.size(); ++i) {
      EXPECT_EQ(ta.attributes[i].name, tb.attributes[i].name);
      EXPECT_EQ(ta.attributes[i].constraint, tb.attributes[i].constraint);
    }
  }
}

class GeneratedSchemaProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedSchemaProperty, DdlRoundTripOnSyntheticSchemas) {
  datasets::SyntheticOptions options;
  options.seed = GetParam();
  options.num_schemas = 3;
  const auto scenario = datasets::BuildSyntheticScenario(options);
  for (const auto& original : scenario.set.schemas()) {
    auto round_tripped =
        schema::ParseDdl(schema::WriteDdl(original), original.name());
    ASSERT_TRUE(round_tripped.ok())
        << original.name() << ": " << round_tripped.status().ToString();
    ExpectSchemaEqual(original, *round_tripped);
  }
}

TEST_P(GeneratedSchemaProperty, DdlRoundTripOnCorpusDdlFiles) {
  datasets::CorpusOptions options;
  options.seed = GetParam();
  options.num_schemas = 3;
  options.tables_per_schema = 3;
  const auto corpus = datasets::BuildSyntheticCorpus(options);
  // Files come in flattened schema order, each schema's `<SCHEMA>.sql`
  // ahead of its CSVs, so the k-th DDL file renders schema k.
  size_t ddl_files = 0;
  for (const auto& file : corpus.files) {
    if (!file.name.ends_with(".sql")) continue;
    ASSERT_LT(ddl_files, corpus.scenario.set.num_schemas()) << file.name;
    const schema::Schema& original =
        corpus.scenario.set.schemas()[ddl_files++];
    ASSERT_EQ(file.name, original.name() + ".sql");
    // The rendered file parses back to the scenario's schema...
    auto parsed = schema::ParseDdl(file.contents, original.name());
    ASSERT_TRUE(parsed.ok())
        << file.name << ": " << parsed.status().ToString();
    ExpectSchemaEqual(original, *parsed);
    // ...and that schema survives another WriteDdl/ParseDdl round.
    auto round_tripped =
        schema::ParseDdl(schema::WriteDdl(*parsed), original.name());
    ASSERT_TRUE(round_tripped.ok())
        << file.name << ": " << round_tripped.status().ToString();
    ExpectSchemaEqual(*parsed, *round_tripped);
  }
  EXPECT_EQ(ddl_files, options.num_schemas);
}

TEST_P(GeneratedSchemaProperty, SignatureRowsAlignAfterStreamlining) {
  datasets::SyntheticOptions options;
  options.seed = GetParam();
  const auto scenario = datasets::BuildSyntheticScenario(options);
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  const auto keep = scoping::CollaborativeScoping(
      signatures, scenario.set.num_schemas(), 0.7);
  ASSERT_TRUE(keep.ok());
  const auto streamlined = scoping::BuildStreamlinedSchemas(
      scenario.set, signatures, *keep);
  // Kept attribute count equals the streamlined attribute total.
  size_t kept_attrs = 0;
  for (size_t i = 0; i < keep->size(); ++i) {
    kept_attrs += (*keep)[i] && !signatures.refs[i].is_table();
  }
  size_t streamlined_attrs = 0;
  for (const auto& s : streamlined.schemas()) {
    streamlined_attrs += s.num_attributes();
  }
  EXPECT_EQ(kept_attrs, streamlined_attrs);
}

TEST_P(GeneratedSchemaProperty, MaskedMatcherNeverEmitsPrunedElements) {
  datasets::SyntheticOptions options;
  options.seed = GetParam();
  const auto scenario = datasets::BuildSyntheticScenario(options);
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  const auto keep = scoping::CollaborativeScoping(
      signatures, scenario.set.num_schemas(), 0.6);
  ASSERT_TRUE(keep.ok());
  const auto pairs = matching::LshMatcher(3).Match(signatures, *keep);
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE((*keep)[scenario.set.IndexOf(a)]);
    EXPECT_TRUE((*keep)[scenario.set.IndexOf(b)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedSchemaProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 0xfeedu));

}  // namespace
}  // namespace colscope
