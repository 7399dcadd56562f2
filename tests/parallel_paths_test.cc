// Determinism tests for every pool-aware stage: signature encoding, SIM
// and IVF matching, threshold sweeps, and local-model fitting must produce
// byte-identical results with a pool of any size as they do serially.
// The early-exit linkability assessment must equal the exhaustive pass,
// and neural models must score safely from two threads. This binary is also part of the TSan suite
// (tools/run_sanitized_tests.sh), so the same cases double as data-race
// checks on the parallel paths.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "datasets/oc3.h"
#include "datasets/synthetic_corpus.h"
#include "datasets/toy.h"
#include "embed/hashed_encoder.h"
#include "eval/sweep.h"
#include "linalg/matrix.h"
#include "matching/ivf_index.h"
#include "matching/sim.h"
#include "obs/metrics.h"
#include "scoping/collaborative.h"
#include "scoping/neural_collaborative.h"
#include "scoping/signatures.h"

namespace colscope {
namespace {

void ExpectBitIdentical(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a.RowPtr(r)[c], b.RowPtr(r)[c])
          << "mismatch at (" << r << ", " << c << ")";
    }
  }
}

std::vector<std::string> ToyTexts() {
  const auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  return scoping::BuildSignatures(scenario.set, encoder).texts;
}

TEST(ParallelEncodeTest, EncodeAllMatchesSerialAtAnyThreadCount) {
  const std::vector<std::string> texts = ToyTexts();
  embed::HashedLexiconEncoder encoder;
  const linalg::Matrix serial = encoder.EncodeAll(texts);
  for (size_t threads : {2u, 5u, 8u}) {
    ThreadPool pool(threads);
    ExpectBitIdentical(encoder.EncodeAll(texts, &pool), serial);
  }
}

TEST(ParallelEncodeTest, NullOrSingleThreadPoolFallsBackToSerial) {
  const std::vector<std::string> texts = ToyTexts();
  embed::HashedLexiconEncoder encoder;
  const linalg::Matrix serial = encoder.EncodeAll(texts);
  ExpectBitIdentical(encoder.EncodeAll(texts, nullptr), serial);
  ThreadPool single(1);
  ExpectBitIdentical(encoder.EncodeAll(texts, &single), serial);
}

TEST(ParallelEncodeTest, PreCancelledBatchLeavesRowsZero) {
  const std::vector<std::string> texts = ToyTexts();
  embed::HashedLexiconEncoder encoder;
  ThreadPool pool(3);
  CancellationToken cancel;
  cancel.Cancel();
  const linalg::Matrix out = encoder.EncodeAll(texts, &pool, &cancel);
  ASSERT_EQ(out.rows(), texts.size());
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      EXPECT_EQ(out.RowPtr(r)[c], 0.0);
    }
  }
}

TEST(ParallelSignaturesTest, BuildSignaturesMatchesSerial) {
  const auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto serial = scoping::BuildSignatures(scenario.set, encoder);
  ThreadPool pool(4);
  const auto parallel = scoping::BuildSignatures(
      scenario.set, encoder, /*serialize_options=*/{}, /*tracer=*/nullptr,
      &pool);
  ASSERT_EQ(parallel.refs, serial.refs);
  ASSERT_EQ(parallel.texts, serial.texts);
  ExpectBitIdentical(parallel.signatures, serial.signatures);
}

TEST(ParallelSimMatcherTest, LinkageSetIdenticalToSerial) {
  const auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  const std::vector<bool> active(signatures.size(), true);
  const matching::SimMatcher serial(0.6);
  const auto expected = serial.Match(signatures, active);
  EXPECT_FALSE(expected.empty());
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const matching::SimMatcher parallel(0.6, &pool);
    EXPECT_EQ(parallel.Match(signatures, active), expected);
  }
}

TEST(ParallelIvfMatcherTest, LinkageSetIdenticalToSerial) {
  // 12 schemas x (4 tables + 32 attributes) = 432 rows: every pooled
  // k-Means loop (14 row blocks of 32; one task per cell, 21 cells) and
  // the per-query search span more tasks than the pool has threads.
  datasets::CorpusOptions options;
  options.num_schemas = 12;
  options.tables_per_schema = 4;
  options.attrs_per_table = 8;
  options.seed = 77;
  const auto scenario = datasets::BuildCorpusScenario(options);
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  ASSERT_GE(signatures.size(), 400u);
  const std::vector<bool> active(signatures.size(), true);
  const matching::IvfMatcher::Options ivf;
  const auto expected = matching::IvfMatcher(ivf).Match(signatures, active);
  EXPECT_FALSE(expected.empty());
  for (size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    const matching::IvfMatcher parallel(ivf, &pool);
    EXPECT_EQ(parallel.Match(signatures, active), expected);
  }
}

void ExpectSameSweep(const std::vector<eval::SweepPoint>& a,
                     const std::vector<eval::SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].parameter, b[i].parameter);
    EXPECT_EQ(a[i].confusion.true_positive, b[i].confusion.true_positive);
    EXPECT_EQ(a[i].confusion.false_positive, b[i].confusion.false_positive);
    EXPECT_EQ(a[i].confusion.true_negative, b[i].confusion.true_negative);
    EXPECT_EQ(a[i].confusion.false_negative, b[i].confusion.false_negative);
  }
}

TEST(ParallelSweepTest, ScopingSweepFromScoresMatchesSerial) {
  const auto scenario = datasets::BuildToyScenario();
  const std::vector<bool> labels =
      scenario.truth.LinkabilityLabels(scenario.set);
  std::vector<double> scores(labels.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<double>((i * 7919) % 100) / 100.0;
  }
  const auto grid = eval::ParameterGrid(0.05);
  const auto serial = eval::ScopingSweepFromScores(scores, labels, grid);
  ThreadPool pool(4);
  const auto parallel =
      eval::ScopingSweepFromScores(scores, labels, grid, &pool);
  ExpectSameSweep(parallel, serial);
}

TEST(ParallelSweepTest, CollaborativeSweepMatchesSerial) {
  const auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  const std::vector<bool> labels =
      scenario.truth.LinkabilityLabels(scenario.set);
  // A coarse grid keeps the per-point refits cheap; correctness is
  // about slot placement, not grid resolution.
  const std::vector<double> grid = {0.3, 0.5, 0.7, 0.9};
  const auto serial =
      eval::CollaborativeSweep(signatures, 4, labels, grid);
  ThreadPool pool(3);
  const auto parallel =
      eval::CollaborativeSweep(signatures, 4, labels, grid, &pool);
  ExpectSameSweep(parallel, serial);
}

TEST(ParallelFitOnPoolTest, SharedPoolMatchesSequentialFit) {
  const auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  const auto sequential = scoping::FitLocalModels(signatures, 4, 0.7);
  ASSERT_TRUE(sequential.ok());
  ThreadPool pool(4);
  // Reusing one pool across calls is the pipeline's usage pattern.
  for (int round = 0; round < 2; ++round) {
    const auto parallel =
        scoping::FitLocalModelsOnPool(signatures, 4, 0.7, pool);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->size(), sequential->size());
    for (size_t s = 0; s < sequential->size(); ++s) {
      const auto local = signatures.SchemaSignatures(static_cast<int>(s));
      EXPECT_EQ((*sequential)[s].ReconstructionErrors(local),
                (*parallel)[s].ReconstructionErrors(local));
    }
  }
}

TEST(ParallelFitOnPoolTest, PreCancelledFitReturnsCancelled) {
  const auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  ThreadPool pool(2);
  CancellationToken cancel;
  cancel.Cancel();
  const auto result =
      scoping::FitLocalModelsOnPool(signatures, 4, 0.7, pool, &cancel);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// Concurrent reads of one shared encoder exercise the shared_mutex
// basis cache from many threads at once — the TSan target.
TEST(SharedEncoderTest, ConcurrentEncodeAllCallsAgree) {
  const std::vector<std::string> texts = ToyTexts();
  embed::HashedLexiconEncoder encoder;
  const linalg::Matrix expected = encoder.EncodeAll(texts);
  ThreadPool outer(4);
  std::vector<linalg::Matrix> results(8);
  ASSERT_TRUE(outer
                  .ParallelFor(results.size(),
                               [&](size_t i) {
                                 ThreadPool inner(2);
                                 results[i] =
                                     encoder.EncodeAll(texts, &inner);
                               })
                  .ok());
  for (const linalg::Matrix& m : results) ExpectBitIdentical(m, expected);
}

/// One corpus with its fitted phase-II models, for the phase-III cases.
struct ScopedCorpus {
  std::string name;
  size_t num_schemas = 0;
  scoping::SignatureSet signatures;
  std::vector<scoping::LocalModel> models;
};

ScopedCorpus PrepareCorpus(const datasets::MatchingScenario& scenario) {
  embed::HashedLexiconEncoder encoder;
  ScopedCorpus corpus;
  corpus.name = scenario.name;
  corpus.num_schemas = scenario.set.num_schemas();
  corpus.signatures = scoping::BuildSignatures(scenario.set, encoder);
  corpus.models =
      scoping::FitLocalModels(corpus.signatures, corpus.num_schemas, 0.8)
          .value();
  return corpus;
}

/// OC3, OC3-FO and `colscope gen-corpus --seed 7 --schemas 16`.
const std::vector<ScopedCorpus>& PhaseThreeCorpora() {
  static const std::vector<ScopedCorpus> corpora = [] {
    datasets::CorpusOptions generated;
    generated.num_schemas = 16;
    generated.seed = 7;
    std::vector<ScopedCorpus> out;
    out.push_back(PrepareCorpus(datasets::BuildOc3Scenario()));
    out.push_back(PrepareCorpus(datasets::BuildOc3FoScenario()));
    out.push_back(PrepareCorpus(datasets::BuildCorpusScenario(generated)));
    return out;
  }();
  return corpora;
}

/// Algorithm 2 without the early exit: every foreign model scores every
/// row of the consumer's own signature matrix through the whole-matrix
/// overload. `performed` follows perfbench's CountPasses rule — per row,
/// the 1-based position of the first recognizing foreign model, or the
/// number of foreign models when none recognizes it.
struct ExhaustiveReference {
  std::vector<bool> keep;
  size_t exhaustive = 0;
  size_t performed = 0;
};

ExhaustiveReference AssessExhaustively(
    const scoping::SignatureSet& signatures, size_t num_schemas,
    const std::vector<scoping::LocalModel>& models) {
  ExhaustiveReference ref;
  ref.keep.assign(signatures.size(), false);
  for (size_t s = 0; s < num_schemas; ++s) {
    const int schema = static_cast<int>(s);
    const std::vector<size_t> rows = signatures.RowsOfSchema(schema);
    const linalg::Matrix local = signatures.SchemaSignatures(schema);
    std::vector<size_t> first(rows.size(), 0);  // 0 = not recognized
    size_t foreign = 0;
    for (const scoping::LocalModel& model : models) {
      if (model.schema_index() == schema) continue;
      ++foreign;
      const linalg::Vector errors = model.ReconstructionErrors(local);
      for (size_t i = 0; i < rows.size(); ++i) {
        if (errors[i] <= model.linkability_range()) {
          ref.keep[rows[i]] = true;
          if (first[i] == 0) first[i] = foreign;
        }
      }
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      ref.exhaustive += foreign;
      ref.performed += first[i] != 0 ? first[i] : foreign;
    }
  }
  return ref;
}

uint64_t CounterValue(obs::MetricsRegistry& metrics, const char* name) {
  return metrics.GetCounter(name).value();
}

TEST(EarlyExitAssessTest, MatchesExhaustiveReferenceAndCountsPasses) {
  for (const ScopedCorpus& corpus : PhaseThreeCorpora()) {
    SCOPED_TRACE(corpus.name);
    const ExhaustiveReference ref = AssessExhaustively(
        corpus.signatures, corpus.num_schemas, corpus.models);
    obs::MetricsRegistry metrics;
    const std::vector<bool> keep =
        scoping::AssessAll(corpus.signatures, corpus.num_schemas,
                           corpus.models, &metrics);
    EXPECT_EQ(keep, ref.keep);
    EXPECT_EQ(CounterValue(metrics, "scoping.model_passes.exhaustive"),
              corpus.signatures.size() * (corpus.num_schemas - 1));
    EXPECT_EQ(CounterValue(metrics, "scoping.model_passes.exhaustive"),
              ref.exhaustive);
    EXPECT_EQ(CounterValue(metrics, "scoping.model_passes.performed"),
              ref.performed);
    EXPECT_LT(ref.performed, ref.exhaustive);
  }
}

TEST(EarlyExitAssessTest, ExhaustiveCountIsThePapersPassFigure) {
  // bench/discussion_tradeoff's §4.4 figure, |S|·(|M|−1).
  const std::vector<ScopedCorpus>& corpora = PhaseThreeCorpora();
  const std::vector<uint64_t> paper = {320, 861};
  for (size_t c = 0; c < paper.size(); ++c) {
    obs::MetricsRegistry metrics;
    scoping::AssessAll(corpora[c].signatures, corpora[c].num_schemas,
                       corpora[c].models, &metrics);
    EXPECT_EQ(CounterValue(metrics, "scoping.model_passes.exhaustive"),
              paper[c])
        << corpora[c].name;
  }
}

TEST(EarlyExitAssessTest, SparseWithEveryModelMatchesAssessAll) {
  scoping::DegradedOptions keep_all;
  keep_all.policy = scoping::DegradedPolicy::kKeepAll;
  for (const ScopedCorpus& corpus : PhaseThreeCorpora()) {
    SCOPED_TRACE(corpus.name);
    const size_t n = corpus.num_schemas;
    const std::vector<std::vector<scoping::LocalModel>> arrived(
        n, corpus.models);
    obs::MetricsRegistry dense_metrics;
    obs::MetricsRegistry sparse_metrics;
    const std::vector<bool> dense =
        scoping::AssessAll(corpus.signatures, n, corpus.models, &dense_metrics);
    const Result<std::vector<bool>> sparse = scoping::AssessAllSparse(
        corpus.signatures, n, arrived, keep_all, &sparse_metrics);
    ASSERT_TRUE(sparse.ok());
    EXPECT_EQ(*sparse, dense);
    for (const char* counter : {"scoping.model_passes.exhaustive",
                                "scoping.model_passes.performed"}) {
      EXPECT_EQ(CounterValue(sparse_metrics, counter),
                CounterValue(dense_metrics, counter))
          << counter;
    }
  }
}

TEST(EarlyExitAssessTest, SparseFailsWithTheLowerIndexConsumer) {
  const ScopedCorpus& corpus = PhaseThreeCorpora()[1];  // OC3-FO, 4 schemas
  const size_t n = corpus.num_schemas;
  std::vector<std::vector<scoping::LocalModel>> arrived(n, corpus.models);
  arrived[1].clear();  // consumers 1 and 3 reach no peer
  arrived[3].clear();
  const scoping::DegradedOptions fail_closed;
  obs::MetricsRegistry metrics;
  const Result<std::vector<bool>> keep = scoping::AssessAllSparse(
      corpus.signatures, n, arrived, fail_closed, &metrics);
  ASSERT_FALSE(keep.ok());
  EXPECT_NE(keep.status().ToString().find("schema 1 "), std::string::npos)
      << keep.status().ToString();
  // A failed assessment records no passes.
  EXPECT_EQ(CounterValue(metrics, "scoping.model_passes.exhaustive"), 0u);
}

/// `models` with every linkability range replaced by `range(schema)`.
std::vector<scoping::LocalModel> WithRanges(
    const std::vector<scoping::LocalModel>& models,
    const std::function<double(int)>& range) {
  std::vector<scoping::LocalModel> out;
  for (const scoping::LocalModel& model : models) {
    out.push_back(scoping::LocalModel::FromParts(
                      model.pca(), range(model.schema_index()),
                      model.schema_index())
                      .value());
  }
  return out;
}

TEST(EarlyExitAssessTest, NothingRecognizedScoresEveryPass) {
  const ScopedCorpus& corpus = PhaseThreeCorpora()[0];
  const auto strict = WithRanges(corpus.models, [](int) { return 0.0; });
  obs::MetricsRegistry metrics;
  const std::vector<bool> keep = scoping::AssessAll(
      corpus.signatures, corpus.num_schemas, strict, &metrics);
  EXPECT_EQ(keep, std::vector<bool>(corpus.signatures.size(), false));
  EXPECT_EQ(CounterValue(metrics, "scoping.model_passes.performed"),
            CounterValue(metrics, "scoping.model_passes.exhaustive"));
  EXPECT_EQ(CounterValue(metrics, "scoping.model_passes.exhaustive"), 320u);
}

TEST(EarlyExitAssessTest, FirstForeignModelDecidingEveryRowStopsThere) {
  // Schemas 0 and 1 accept anything: schema 0's model is every other
  // consumer's first foreign model, schema 1's is consumer 0's.
  const ScopedCorpus& corpus = PhaseThreeCorpora()[1];
  const auto lenient = WithRanges(
      corpus.models, [](int schema) { return schema <= 1 ? 1e300 : 0.0; });
  obs::MetricsRegistry metrics;
  const std::vector<bool> keep = scoping::AssessAll(
      corpus.signatures, corpus.num_schemas, lenient, &metrics);
  EXPECT_EQ(keep, std::vector<bool>(corpus.signatures.size(), true));
  EXPECT_EQ(CounterValue(metrics, "scoping.model_passes.performed"),
            corpus.signatures.size());
  EXPECT_EQ(CounterValue(metrics, "scoping.model_passes.exhaustive"), 861u);
}

// NeuralLocalModel's const scoring path once wrote layer caches inside
// the shared network; two threads scoring through one model (and a
// copy sharing its network) must now agree with the serial result —
// and stay clean under TSan.
TEST(NeuralScoringTest, ConcurrentReconstructionErrorsAgreeWithSerial) {
  const auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  scoping::NeuralLocalModelOptions options;
  options.epochs = 3;
  const scoping::NeuralLocalModel model =
      scoping::NeuralLocalModel::Fit(signatures.SchemaSignatures(0), options,
                                     0)
          .value();
  const scoping::NeuralLocalModel copy = model;
  const linalg::Vector serial =
      model.ReconstructionErrors(signatures.signatures);
  linalg::Vector first, second;
  std::thread a(
      [&] { first = model.ReconstructionErrors(signatures.signatures); });
  std::thread b(
      [&] { second = copy.ReconstructionErrors(signatures.signatures); });
  a.join();
  b.join();
  EXPECT_EQ(first, serial);
  EXPECT_EQ(second, serial);
  // The row overload gathers one batch; each row's error is unchanged.
  const std::vector<size_t> rows = {3, 0, 3, 7};
  const linalg::Vector listed =
      model.ReconstructionErrors(signatures.signatures, rows);
  ASSERT_EQ(listed.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(listed[i], serial[rows[i]]);
  }
}

}  // namespace
}  // namespace colscope
