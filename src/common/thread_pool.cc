#include "common/thread_pool.h"

#include <algorithm>

namespace colscope {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  work_done_.wait(lock, [this] { return in_flight_ == 0; });
}

Status ThreadPool::ParallelFor(size_t count,
                               const std::function<void(size_t)>& task,
                               const CancellationToken* cancel) {
  // Child of the caller's token: a throwing task trips it pool-wide
  // without cancelling anything beyond this ParallelFor call.
  CancellationToken aborted(cancel);
  std::mutex error_mu;
  Status first_error;
  for (size_t i = 0; i < count; ++i) {
    if (aborted.cancelled()) break;  // Stop scheduling new indices.
    Schedule([&, i] {
      if (aborted.cancelled()) return;  // Skip queued-but-unstarted work.
      try {
        task(i);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) {
          first_error = Status::Internal(
              std::string("parallel task threw: ") + e.what());
        }
        aborted.Cancel();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) {
          first_error = Status::Internal("parallel task threw a non-std "
                                         "exception");
        }
        aborted.Cancel();
      }
    });
  }
  Wait();
  {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!first_error.ok()) return first_error;
  }
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled("parallel_for cancelled before completion");
  }
  return Status::Ok();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) work_done_.notify_all();
    }
  }
}

}  // namespace colscope
