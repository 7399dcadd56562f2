#ifndef COLSCOPE_COMMON_THREAD_POOL_H_
#define COLSCOPE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"

namespace colscope {

/// Minimal fixed-size thread pool. Used for the embarrassingly parallel
/// stages the paper points out ("the computation of the self-supervised
/// encoder-decoder and linkability assessment takes place in parallel at
/// each local schema", Section 3). Destruction waits for queued work.
class ThreadPool {
 public:
  /// `num_threads` 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Schedule(std::function<void()> task);

  /// Blocks until every scheduled task has finished.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  /// Runs `task(i)` for i in [0, count) across the pool and waits.
  /// Returns Ok when every index ran. A throwing task no longer
  /// std::terminates the process mid-run: the first exception is
  /// recorded, the remaining unscheduled/unstarted indices are skipped
  /// (pool-wide cancellation), and the returned status is Internal with
  /// the exception's message. When the optional `cancel` token trips
  /// mid-run, no new indices are scheduled, queued ones are skipped, and
  /// the status is Cancelled; tasks already running finish either way,
  /// so the pool is quiescent for these indices when this returns.
  Status ParallelFor(size_t count, const std::function<void(size_t)>& task,
                     const CancellationToken* cancel = nullptr);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable work_done_;
  std::queue<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace colscope

#endif  // COLSCOPE_COMMON_THREAD_POOL_H_
