// End-to-end integration tests: the paper's headline results, asserted
// on the full OC3 / OC3-FO pipeline (coarse sweep grids keep the suite
// fast; the bench binaries run the fine-grained versions).

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "datasets/oc3.h"
#include "embed/hashed_encoder.h"
#include "eval/matching_metrics.h"
#include "eval/sweep.h"
#include "matching/cluster_matcher.h"
#include "matching/lsh_matcher.h"
#include "matching/sim.h"
#include "outlier/lof.h"
#include "outlier/pca_oda.h"
#include "outlier/zscore.h"
#include "scoping/collaborative.h"
#include "scoping/model_io.h"
#include "scoping/scoping.h"
#include "scoping/signatures.h"
#include "scoping/streamline.h"

namespace colscope {
namespace {

/// Shared expensive fixture: signatures and sweeps are computed once.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    state_ = new State();
    state_->oc3 = datasets::BuildOc3Scenario();
    state_->fo = datasets::BuildOc3FoScenario();
    embed::HashedLexiconEncoder encoder;
    state_->sig_oc3 = scoping::BuildSignatures(state_->oc3.set, encoder);
    state_->sig_fo = scoping::BuildSignatures(state_->fo.set, encoder);
    state_->labels_oc3 = state_->oc3.truth.LinkabilityLabels(state_->oc3.set);
    state_->labels_fo = state_->fo.truth.LinkabilityLabels(state_->fo.set);

    const auto grid = eval::ParameterGrid(0.05, 0.95);
    state_->collab_oc3 = eval::ReportForCollaborative(
        eval::CollaborativeSweep(state_->sig_oc3, 3, state_->labels_oc3,
                                 grid));
    state_->collab_fo = eval::ReportForCollaborative(
        eval::CollaborativeSweep(state_->sig_fo, 4, state_->labels_fo, grid));

    auto run_scoping = [&](const scoping::SignatureSet& sig,
                           const std::vector<bool>& labels,
                           const outlier::OutlierDetector& detector) {
      const auto scores = detector.Scores(sig.signatures);
      const auto sweep = eval::ScopingSweepFromScores(scores, labels, grid);
      return eval::ReportForScoping(labels, scores, sweep);
    };
    const outlier::ZScoreDetector zscore;
    const outlier::LofDetector lof(20);
    const outlier::PcaDetector pca3(0.3), pca5(0.5), pca7(0.7);
    const std::vector<const outlier::OutlierDetector*> detectors = {
        &zscore, &lof, &pca3, &pca5, &pca7};
    for (const outlier::OutlierDetector* d : detectors) {
      state_->scoping_oc3.push_back(
          run_scoping(state_->sig_oc3, state_->labels_oc3, *d));
      state_->scoping_fo.push_back(
          run_scoping(state_->sig_fo, state_->labels_fo, *d));
    }
  }
  static void TearDownTestSuite() {
    delete state_;
    state_ = nullptr;
  }

  struct State {
    datasets::MatchingScenario oc3, fo;
    scoping::SignatureSet sig_oc3, sig_fo;
    std::vector<bool> labels_oc3, labels_fo;
    eval::AucReport collab_oc3, collab_fo;
    std::vector<eval::AucReport> scoping_oc3, scoping_fo;
  };
  static State* state_;

  static double BestScopingF1(const std::vector<eval::AucReport>& reports) {
    double best = 0.0;
    for (const auto& r : reports) best = std::max(best, r.auc_f1);
    return best;
  }
  static double BestScopingPr(const std::vector<eval::AucReport>& reports) {
    double best = 0.0;
    for (const auto& r : reports) best = std::max(best, r.auc_pr);
    return best;
  }
};

PipelineTest::State* PipelineTest::state_ = nullptr;

// --- Observation 1 (Section 4): collaborative beats scoping in AUC-F1 ----

TEST_F(PipelineTest, CollaborativeBeatsAllScopingBaselinesInF1OnOc3) {
  EXPECT_GT(state_->collab_oc3.auc_f1, BestScopingF1(state_->scoping_oc3));
}

TEST_F(PipelineTest, CollaborativeBeatsAllScopingBaselinesInF1OnOc3Fo) {
  EXPECT_GT(state_->collab_fo.auc_f1, BestScopingF1(state_->scoping_fo));
}

TEST_F(PipelineTest, CollaborativeBeatsAllScopingBaselinesInPrOnOc3Fo) {
  EXPECT_GT(state_->collab_fo.auc_pr, BestScopingPr(state_->scoping_fo));
}

// --- Observation 2: scoping collapses on heterogeneous schemas while
// collaborative stays robust ------------------------------------------------

TEST_F(PipelineTest, ScopingDegradesFromOc3ToOc3Fo) {
  // Every scoping baseline loses AUC-PR when the Formula One schema
  // joins; the drop exceeds 15 points for each of them.
  for (size_t i = 0; i < state_->scoping_oc3.size(); ++i) {
    EXPECT_GT(state_->scoping_oc3[i].auc_pr,
              state_->scoping_fo[i].auc_pr + 15.0)
        << "baseline " << i;
  }
}

TEST_F(PipelineTest, CollaborativeRobustToHeterogeneity) {
  // Collaborative scoping's AUC-PR moves by only a few points between
  // the 103% and 263% unlinkable-overhead scenarios.
  EXPECT_LT(std::abs(state_->collab_oc3.auc_pr - state_->collab_fo.auc_pr),
            10.0);
  // And its smoothed ROC actually improves on OC3-FO (paper: +13%).
  EXPECT_GT(state_->collab_fo.auc_roc_smoothed,
            state_->collab_oc3.auc_roc_smoothed);
}

TEST_F(PipelineTest, ZScoreNearOrBelowRandomOnOc3Fo) {
  // Paper: most baselines perform at or below chance once the Formula
  // One schema dominates the global distribution (Section 4.3).
  EXPECT_LT(state_->scoping_fo[0].auc_roc, 55.0);  // z-score.
}

TEST_F(PipelineTest, SmoothedRocNeverBelowRawRoc) {
  EXPECT_GE(state_->collab_oc3.auc_roc_smoothed,
            state_->collab_oc3.auc_roc - 1e-9);
  EXPECT_GE(state_->collab_fo.auc_roc_smoothed,
            state_->collab_fo.auc_roc - 1e-9);
}

// --- Observation 3 (ablation): streamlined schemas boost matching PQ and
// never hurt the reduction ratio ----------------------------------------------

TEST_F(PipelineTest, ScopingBoostsClusterAndLshPairQuality) {
  const size_t cartesian = state_->fo.set.TableCartesianSize() +
                           state_->fo.set.AttributeCartesianSize();
  const std::vector<bool> all(state_->sig_fo.size(), true);
  const auto keep = scoping::CollaborativeScoping(state_->sig_fo, 4, 0.9);
  ASSERT_TRUE(keep.ok());

  const matching::ClusterMatcher cluster(20);
  const matching::LshMatcher lsh(1);
  const std::vector<const matching::Matcher*> matchers = {&cluster, &lsh};
  for (const matching::Matcher* m : matchers) {
    const auto before = eval::EvaluateMatching(
        m->Match(state_->sig_fo, all), state_->fo.truth, cartesian);
    const auto after = eval::EvaluateMatching(
        m->Match(state_->sig_fo, *keep), state_->fo.truth, cartesian);
    EXPECT_GT(after.PairQuality(), 1.5 * before.PairQuality()) << m->name();
    EXPECT_GT(after.ReductionRatio(), before.ReductionRatio()) << m->name();
  }
}

TEST_F(PipelineTest, ReductionRatioImprovesForEveryMatcherAndVariance) {
  const size_t cartesian = state_->oc3.set.TableCartesianSize() +
                           state_->oc3.set.AttributeCartesianSize();
  const std::vector<bool> all(state_->sig_oc3.size(), true);
  const matching::SimMatcher sim(0.4);
  const auto before = eval::EvaluateMatching(
      sim.Match(state_->sig_oc3, all), state_->oc3.truth, cartesian);
  for (double v : {0.9, 0.6, 0.3}) {
    const auto keep = scoping::CollaborativeScoping(state_->sig_oc3, 3, v);
    ASSERT_TRUE(keep.ok());
    const auto after = eval::EvaluateMatching(
        sim.Match(state_->sig_oc3, *keep), state_->oc3.truth, cartesian);
    EXPECT_GE(after.ReductionRatio(), before.ReductionRatio());
  }
}

// --- Section 4.4 trade-off numbers (exact) -----------------------------------

TEST_F(PipelineTest, EncoderDecoderPassCountsMatchPaper) {
  // OC3: 160 elements x 2 foreign models = 320 passes = 4.76% of 6718.
  const size_t oc3_passes = state_->sig_oc3.size() * 2;
  const size_t oc3_cartesian = state_->oc3.set.TableCartesianSize() +
                               state_->oc3.set.AttributeCartesianSize();
  EXPECT_EQ(oc3_passes, 320u);
  EXPECT_NEAR(100.0 * oc3_passes / oc3_cartesian, 4.76, 0.01);
  // OC3-FO: 287 x 3 = 861 = 3.78% of 22768.
  const size_t fo_passes = state_->sig_fo.size() * 3;
  const size_t fo_cartesian = state_->fo.set.TableCartesianSize() +
                              state_->fo.set.AttributeCartesianSize();
  EXPECT_EQ(fo_passes, 861u);
  EXPECT_NEAR(100.0 * fo_passes / fo_cartesian, 3.78, 0.01);
}

TEST_F(PipelineTest, EvenMostPermissiveVariancePrunesSomething) {
  // Paper: v = 0.01 still prunes 9.37% (OC3) / 19.86% (OC3-FO); ours
  // prunes a nonzero share with the same ordering.
  const auto keep_oc3 = scoping::CollaborativeScoping(state_->sig_oc3, 3,
                                                      0.01);
  const auto keep_fo = scoping::CollaborativeScoping(state_->sig_fo, 4, 0.01);
  ASSERT_TRUE(keep_oc3.ok());
  ASSERT_TRUE(keep_fo.ok());
  const double pruned_oc3 =
      1.0 - static_cast<double>(scoping::CountKept(*keep_oc3)) /
                static_cast<double>(keep_oc3->size());
  const double pruned_fo =
      1.0 - static_cast<double>(scoping::CountKept(*keep_fo)) /
                static_cast<double>(keep_fo->size());
  EXPECT_GT(pruned_oc3, 0.0);
  EXPECT_GT(pruned_fo, pruned_oc3);  // More heterogeneity, more pruning.
}

// --- Streamlined schema materialization over the real datasets ----------------

TEST_F(PipelineTest, StreamlinedSchemasShrinkAndPreserveNames) {
  const auto keep = scoping::CollaborativeScoping(state_->sig_fo, 4, 0.85);
  ASSERT_TRUE(keep.ok());
  const auto streamlined = scoping::BuildStreamlinedSchemas(
      state_->fo.set, state_->sig_fo, *keep);
  ASSERT_EQ(streamlined.num_schemas(), 4u);
  size_t total = 0;
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(streamlined.schema(s).name(), state_->fo.set.schema(s).name());
    EXPECT_LE(streamlined.schema(s).num_elements(),
              state_->fo.set.schema(s).num_elements());
    total += streamlined.schema(s).num_elements();
  }
  EXPECT_LT(total, state_->fo.set.num_elements());
  // The Formula One schema shrinks dramatically relative to its size.
  EXPECT_LT(streamlined.schema(3).num_elements() * 2,
            state_->fo.set.schema(3).num_elements());
}

// --- Cross-cutting extensions on the full datasets ---------------------------

TEST_F(PipelineTest, ParallelFitIdenticalToSequentialOnOc3Fo) {
  const auto sequential = scoping::FitLocalModels(state_->sig_fo, 4, 0.8);
  ThreadPool pool(4);
  const auto parallel =
      scoping::FitLocalModelsOnPool(state_->sig_fo, 4, 0.8, pool);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(scoping::AssessAll(state_->sig_fo, 4, *sequential),
            scoping::AssessAll(state_->sig_fo, 4, *parallel));
}

TEST_F(PipelineTest, ModelRoundTripPreservesAssessmentOnOc3) {
  auto models = scoping::FitLocalModels(state_->sig_oc3, 3, 0.8);
  ASSERT_TRUE(models.ok());
  std::vector<scoping::LocalModel> restored;
  for (const auto& model : *models) {
    auto back = scoping::DeserializeLocalModel(
        scoping::SerializeLocalModel(model));
    ASSERT_TRUE(back.ok());
    restored.push_back(std::move(back).value());
  }
  EXPECT_EQ(scoping::AssessAll(state_->sig_oc3, 3, *models),
            scoping::AssessAll(state_->sig_oc3, 3, restored));
}

}  // namespace
}  // namespace colscope
