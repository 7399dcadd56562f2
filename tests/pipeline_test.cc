#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "common/cancellation.h"
#include "datasets/toy.h"
#include "embed/hashed_encoder.h"
#include "matching/sim.h"
#include "obs/metrics.h"
#include "outlier/pca_oda.h"
#include "pipeline/pipeline.h"
#include "pipeline/report.h"

namespace colscope::pipeline {
namespace {

class PipelineApiTest : public ::testing::Test {
 protected:
  void SetUp() override { scenario_ = datasets::BuildToyScenario(); }

  embed::HashedLexiconEncoder encoder_;
  datasets::MatchingScenario scenario_;
  matching::SimMatcher matcher_{0.6};
};

TEST_F(PipelineApiTest, CollaborativeEndToEnd) {
  PipelineOptions options;
  options.scoper = ScoperKind::kCollaborativePca;
  options.explained_variance = 0.5;
  Pipeline pipeline(&encoder_, options);

  auto run = pipeline.Run(scenario_.set, matcher_, &scenario_.truth);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->keep.size(), scenario_.set.num_elements());
  EXPECT_GT(run->num_kept(), 0u);
  EXPECT_GT(run->num_pruned(), 0u);
  EXPECT_EQ(run->streamlined.num_schemas(), 4u);
  ASSERT_TRUE(run->quality.has_value());
  EXPECT_EQ(run->quality->cartesian,
            scenario_.set.TableCartesianSize() +
                scenario_.set.AttributeCartesianSize());
}

TEST_F(PipelineApiTest, NoScopingKeepsEverything) {
  PipelineOptions options;
  options.scoper = ScoperKind::kNone;
  Pipeline pipeline(&encoder_, options);
  auto run = pipeline.Run(scenario_.set, matcher_);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->num_kept(), scenario_.set.num_elements());
  EXPECT_FALSE(run->quality.has_value());
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(run->streamlined.schema(s).num_elements(),
              scenario_.set.schema(s).num_elements());
  }
}

TEST_F(PipelineApiTest, GlobalScopingPath) {
  outlier::PcaDetector detector(0.5);
  PipelineOptions options;
  options.scoper = ScoperKind::kGlobalScoping;
  options.keep_portion = 0.5;
  options.detector = &detector;
  Pipeline pipeline(&encoder_, options);
  auto run = pipeline.Run(scenario_.set, matcher_, &scenario_.truth);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->num_kept(), 12u);  // Half of 24.
}

TEST_F(PipelineApiTest, GlobalScopingRequiresDetector) {
  PipelineOptions options;
  options.scoper = ScoperKind::kGlobalScoping;
  Pipeline pipeline(&encoder_, options);
  auto run = pipeline.Run(scenario_.set, matcher_);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PipelineApiTest, NeuralScopingPath) {
  PipelineOptions options;
  options.scoper = ScoperKind::kCollaborativeNeural;
  options.neural.hidden_dims = {16, 4, 16};
  options.neural.epochs = 10;
  Pipeline pipeline(&encoder_, options);
  auto run = pipeline.Run(scenario_.set, matcher_, &scenario_.truth);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->keep.size(), 24u);
}

TEST_F(PipelineApiTest, RejectsSingleSchemaSet) {
  schema::SchemaSet single({scenario_.set.schema(0)});
  Pipeline pipeline(&encoder_, PipelineOptions{});
  auto run = pipeline.Run(single, matcher_);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PipelineApiTest, CompletedRunReportsAllPhases) {
  PipelineOptions options;
  options.scoper = ScoperKind::kCollaborativePca;
  options.explained_variance = 0.5;
  Pipeline pipeline(&encoder_, options);
  auto run = pipeline.Run(scenario_.set, matcher_, &scenario_.truth);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->status.ok());
  EXPECT_EQ(run->phases_completed,
            std::vector<std::string>(kPipelinePhases.begin(),
                                     kPipelinePhases.end()));
  EXPECT_EQ(run->local_models.size(), scenario_.set.num_schemas());
}

TEST_F(PipelineApiTest, EveryPhaseThatRunsRecordsItsLatency) {
  for (ScoperKind scoper : {ScoperKind::kNone, ScoperKind::kCollaborativePca}) {
    obs::MetricsRegistry metrics;
    PipelineOptions options;
    options.scoper = scoper;
    options.metrics = &metrics;
    auto run = Pipeline(&encoder_, options)
                   .Run(scenario_.set, matcher_, &scenario_.truth);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run->metrics.has_value());
    std::vector<std::string> timed;
    for (const auto& [name, histogram] : run->metrics->histograms) {
      timed.push_back(name);
    }
    std::vector<std::string> expected;
    for (const std::string& phase : run->phases_completed) {
      expected.push_back("pipeline." + phase + "_ms");
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(timed, expected);
  }
}

TEST_F(PipelineApiTest, PreCancelledRunStopsAfterSignatures) {
  CancellationToken cancel;
  cancel.Cancel();
  obs::MetricsRegistry metrics;
  PipelineOptions options;
  options.cancel = &cancel;
  options.metrics = &metrics;
  Pipeline pipeline(&encoder_, options);
  auto run = pipeline.Run(scenario_.set, matcher_);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->status.code(), StatusCode::kCancelled);
  EXPECT_EQ(run->phases_completed,
            std::vector<std::string>{"signatures"});
  EXPECT_TRUE(run->keep.empty());
  EXPECT_EQ(metrics.GetCounter("pipeline.cancelled").value(), 1u);
  // The partial run still snapshots metrics and renders as a report.
  ASSERT_TRUE(run->metrics.has_value());
  const std::string json = RunToJson(*run, scenario_.set);
  EXPECT_NE(json.find("\"status\":\"cancelled\""), std::string::npos);
}

TEST_F(PipelineApiTest, ExhaustedDeadlineStopsRunCleanly) {
  SimulatedRunClock clock(/*tick_ms=*/1.0);
  obs::MetricsRegistry metrics;
  PipelineOptions options;
  options.deadline_ms = 0.5;  // Expired after the first clock tick.
  options.clock = &clock;
  options.metrics = &metrics;
  Pipeline pipeline(&encoder_, options);
  auto run = pipeline.Run(scenario_.set, matcher_);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(run->phases_completed,
            std::vector<std::string>{"signatures"});
  EXPECT_EQ(metrics.GetCounter("pipeline.deadline_exceeded").value(), 1u);
}

TEST_F(PipelineApiTest, GenerousDeadlineDoesNotInterfere) {
  PipelineOptions options;
  options.deadline_ms = 1e9;
  Pipeline pipeline(&encoder_, options);
  auto run = pipeline.Run(scenario_.set, matcher_);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->status.ok());
}

TEST_F(PipelineApiTest, CrashAfterPhaseHookFiresAfterAnyPhase) {
  for (const char* phase : {"local_models", "match"}) {
    PipelineOptions options;
    options.crash_after_phase = phase;
    auto run = Pipeline(&encoder_, options).Run(scenario_.set, matcher_);
    ASSERT_FALSE(run.ok()) << phase;
    EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  }
  PipelineOptions typo;
  typo.crash_after_phase = "local_model";
  auto run = Pipeline(&encoder_, typo).Run(scenario_.set, matcher_);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PipelineApiTest, RerunOnTheCacheAfterACrashMatchesUninterruptedRun) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "colscope_crash_rerun")
          .string();
  std::filesystem::remove_all(dir);
  PipelineOptions options;
  options.explained_variance = 0.5;
  auto gold = Pipeline(&encoder_, options)
                  .Run(scenario_.set, matcher_, &scenario_.truth);
  ASSERT_TRUE(gold.ok());

  PipelineOptions crash = options;
  crash.cache_dir = dir;
  crash.crash_after_phase = "local_models";
  ASSERT_FALSE(Pipeline(&encoder_, crash).Run(scenario_.set, matcher_).ok());

  // The crashed run left its signatures and models in the cache: the
  // re-run restores them (hits) and computes only what came after.
  obs::MetricsRegistry metrics;
  PipelineOptions rerun = options;
  rerun.cache_dir = dir;
  rerun.metrics = &metrics;
  auto resumed = Pipeline(&encoder_, rerun)
                     .Run(scenario_.set, matcher_, &scenario_.truth);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(metrics.GetCounter("cache.hits").value(),
            2 * scenario_.set.num_schemas());
  EXPECT_EQ(resumed->signatures.signatures.data(),
            gold->signatures.signatures.data());
  EXPECT_EQ(resumed->keep, gold->keep);
  EXPECT_EQ(resumed->linkages, gold->linkages);
  resumed->metrics.reset();
  EXPECT_EQ(RunToJson(*resumed, scenario_.set),
            RunToJson(*gold, scenario_.set));
  std::filesystem::remove_all(dir);
}

TEST_F(PipelineApiTest, ScopingImprovesOrMaintainsReductionRatio) {
  PipelineOptions with;
  with.scoper = ScoperKind::kCollaborativePca;
  with.explained_variance = 0.5;
  PipelineOptions without;
  without.scoper = ScoperKind::kNone;

  auto scoped = Pipeline(&encoder_, with)
                    .Run(scenario_.set, matcher_, &scenario_.truth);
  auto raw = Pipeline(&encoder_, without)
                 .Run(scenario_.set, matcher_, &scenario_.truth);
  ASSERT_TRUE(scoped.ok());
  ASSERT_TRUE(raw.ok());
  EXPECT_GE(scoped->quality->ReductionRatio(),
            raw->quality->ReductionRatio());
}

}  // namespace
}  // namespace colscope::pipeline
