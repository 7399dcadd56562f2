#ifndef COLSCOPE_SERVER_ADMISSION_H_
#define COLSCOPE_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/cancellation.h"
#include "common/status.h"

namespace colscope::obs {
class MetricsRegistry;
}  // namespace colscope::obs

namespace colscope::server {

/// Tunables of the bounded admission queue. Every limit is a hard
/// rejection threshold, not a resize trigger: the controller's job is to
/// convert overload into typed kOverloaded errors instead of unbounded
/// memory growth or latency collapse.
struct AdmissionOptions {
  /// Requests allowed to wait for an execution slot. The queue is the
  /// set of caller threads blocked inside Admit(), so its bound also
  /// bounds the daemon's queued-request memory.
  size_t max_queue = 16;
  /// Requests executing concurrently.
  size_t max_inflight = 2;
  /// Budget on the summed estimated cost (request payload bytes) of
  /// queued + executing requests; 0 means unbounded. A single request
  /// larger than the whole budget is shed outright.
  uint64_t max_cost_bytes = 256ull << 20;
  /// Borrowed; may be null. Exports the server.queue_depth,
  /// server.inflight and server.draining gauges.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Bounded admission gate for the resident server. Callers (one per
/// connection thread) pass their request's estimated cost and deadline;
/// Admit() either rejects immediately with kOverloaded (queue full, cost
/// budget exceeded, draining), waits for an execution slot, or gives up
/// with kDeadlineExceeded / kCancelled when the request's deadline or
/// the server's hard-stop token fires while queued. An admitted caller
/// owns one inflight slot until it calls Release().
///
/// Thread-safe. Shedding decisions are made under one mutex, so the
/// queue bound is exact — two racing arrivals can never both slip past a
/// full queue.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Blocks until an execution slot is free (Ok), the request is shed
  /// (kOverloaded — immediately, never after waiting), the deadline
  /// expires in the queue (kDeadlineExceeded), or `hard_stop` trips
  /// (kCancelled). On Ok the caller must eventually call Release(cost).
  Status Admit(uint64_t cost_bytes, const Deadline& deadline,
               const CancellationToken* hard_stop);

  /// Frees the slot an Ok Admit() granted.
  void Release(uint64_t cost_bytes);

  /// Flips the controller into draining: every subsequent Admit() is
  /// rejected with kOverloaded("draining"); already-queued requests keep
  /// their place and still get slots as they free up.
  void BeginDrain();

  bool draining() const;

  /// Requests currently waiting for a slot.
  size_t queue_depth() const;
  /// Requests currently holding execution slots.
  size_t inflight() const;

 private:
  void UpdateGauges();  // Caller holds mu_ (or is the constructor).

  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::condition_variable slot_free_;
  size_t queued_ = 0;
  size_t inflight_ = 0;
  uint64_t cost_bytes_ = 0;
  bool draining_ = false;
};

}  // namespace colscope::server

#endif  // COLSCOPE_SERVER_ADMISSION_H_
