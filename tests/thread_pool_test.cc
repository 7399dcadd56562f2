#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "datasets/toy.h"
#include "embed/hashed_encoder.h"
#include "scoping/collaborative.h"
#include "scoping/signatures.h"

namespace colscope {
namespace {

TEST(ThreadPoolTest, RunsAllScheduledTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoWorkReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // Must not deadlock.
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  const Status status =
      pool.ParallelFor(64, [&](size_t i) { hits[i].fetch_add(1); });
  EXPECT_TRUE(status.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSurfacesThrownExceptionAsStatus) {
  ThreadPool pool(4);
  // Without the catch in ParallelFor, an exception escaping a worker
  // thread would std::terminate the whole process.
  const Status status = pool.ParallelFor(128, [&](size_t i) {
    if (i == 17) throw std::runtime_error("task 17 exploded");
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("task 17 exploded"), std::string::npos);
}

TEST(ThreadPoolTest, ParallelForExceptionCancelsRemainingWork) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  const Status status = pool.ParallelFor(10000, [&](size_t i) {
    executed.fetch_add(1);
    if (i == 0) throw std::runtime_error("early failure");
  });
  ASSERT_FALSE(status.ok());
  // The failure cancels scheduling/execution of most of the remaining
  // indices; without propagation all 10000 would have run.
  EXPECT_LT(executed.load(), 10000);
}

TEST(ThreadPoolTest, ParallelForNonStdExceptionIsInternal) {
  ThreadPool pool(2);
  const Status status =
      pool.ParallelFor(4, [&](size_t i) {
        if (i == 1) throw 42;  // NOLINT(hicpp-exception-baseclass)
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, ParallelForPoolSurvivesAfterException) {
  ThreadPool pool(2);
  (void)pool.ParallelFor(8, [&](size_t i) {
    if (i % 2 == 0) throw std::runtime_error("boom");
  });
  // The pool must remain fully usable for subsequent batches.
  std::atomic<int> counter{0};
  const Status status =
      pool.ParallelFor(32, [&](size_t) { counter.fetch_add(1); });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, ParallelForPreCancelledTokenSkipsAllWork) {
  ThreadPool pool(2);
  CancellationToken cancel;
  cancel.Cancel();
  std::atomic<int> executed{0};
  const Status status = pool.ParallelFor(
      64, [&](size_t) { executed.fetch_add(1); }, &cancel);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPoolTest, ParallelForCancelMidFlightStopsEarly) {
  ThreadPool pool(2);
  CancellationToken cancel;
  std::atomic<int> executed{0};
  const Status status = pool.ParallelFor(100000, [&](size_t i) {
    executed.fetch_add(1);
    if (i == 10) cancel.Cancel();
  }, &cancel);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_LT(executed.load(), 100000);
}

TEST(ThreadPoolTest, DestructionDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
    // No explicit Wait: the destructor must still run everything.
  }
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ParallelFitTest, MatchesSequentialFit) {
  auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto signatures =
      scoping::BuildSignatures(scenario.set, encoder);
  const auto sequential = scoping::FitLocalModels(signatures, 4, 0.7);
  ThreadPool pool(3);
  const auto parallel =
      scoping::FitLocalModelsOnPool(signatures, 4, 0.7, pool);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(sequential->size(), parallel->size());
  for (size_t s = 0; s < sequential->size(); ++s) {
    EXPECT_EQ((*sequential)[s].schema_index(),
              (*parallel)[s].schema_index());
    EXPECT_DOUBLE_EQ((*sequential)[s].linkability_range(),
                     (*parallel)[s].linkability_range());
    // Behavioural equality: identical reconstruction errors.
    const auto local = signatures.SchemaSignatures(static_cast<int>(s));
    EXPECT_EQ((*sequential)[s].ReconstructionErrors(local),
              (*parallel)[s].ReconstructionErrors(local));
  }
}

TEST(ParallelFitTest, PropagatesFitErrors) {
  // An empty schema must surface as an error, not a crash.
  scoping::SignatureSet empty;
  ThreadPool pool(2);
  EXPECT_FALSE(scoping::FitLocalModelsOnPool(empty, 1, 0.5, pool).ok());
  EXPECT_FALSE(scoping::FitLocalModelsOf(empty, {0, 0}, 0.5, &pool, nullptr)
                   .ok());
}

TEST(ParallelFitTest, SerialFitHonoursCancellation) {
  auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  CancellationToken cancel;
  cancel.Cancel();
  const auto result = scoping::FitLocalModelsOf(signatures, {0, 1, 2, 3},
                                                0.7, nullptr, &cancel);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(ParallelFitTest, FitsOnlyTheListedSchemasInListOrder) {
  auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  const auto all = scoping::FitLocalModels(signatures, 4, 0.7);
  ThreadPool pool(2);
  const auto subset =
      scoping::FitLocalModelsOf(signatures, {3, 1}, 0.7, &pool, nullptr);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(subset.ok());
  ASSERT_EQ(subset->size(), 2u);
  EXPECT_EQ((*subset)[0].schema_index(), 3);
  EXPECT_EQ((*subset)[1].schema_index(), 1);
  EXPECT_EQ((*subset)[0].linkability_range(), (*all)[3].linkability_range());
  EXPECT_EQ((*subset)[1].linkability_range(), (*all)[1].linkability_range());
}

}  // namespace
}  // namespace colscope
