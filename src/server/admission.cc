#include "server/admission.h"

#include <algorithm>
#include <chrono>

#include "common/strings.h"
#include "obs/metrics.h"

namespace colscope::server {

namespace {

/// Condvar wait slice. Deadlines and cancellation are level-triggered
/// state the waiter polls, so the slice bounds how stale a queued
/// request's view of them can get — same discipline as net's poll tick.
constexpr auto kWaitSlice = std::chrono::milliseconds(10);

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  // Pre-registers the gauges, so an idle server still exports them.
  UpdateGauges();
}

void AdmissionController::UpdateGauges() {
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("server.queue_depth")
        .Set(static_cast<double>(queued_));
    options_.metrics->GetGauge("server.inflight")
        .Set(static_cast<double>(inflight_));
    options_.metrics->GetGauge("server.draining").Set(draining_ ? 1.0 : 0.0);
  }
}

Status AdmissionController::Admit(uint64_t cost_bytes,
                                  const Deadline& deadline,
                                  const CancellationToken* hard_stop) {
  std::unique_lock<std::mutex> lock(mu_);
  // Shedding is decided at arrival, under the lock, from bounded state —
  // the request is either queued now or rejected now. Rejections are
  // O(1) and allocation-free, which is what keeps an overload from
  // collapsing into timeouts-for-everyone.
  if (draining_) {
    return Status::Overloaded("server is draining; not accepting work");
  }
  if (queued_ >= options_.max_queue) {
    return Status::Overloaded(
        StrFormat("admission queue full (%zu queued, cap %zu)", queued_,
                  options_.max_queue));
  }
  if (options_.max_cost_bytes > 0 &&
      cost_bytes_ + cost_bytes > options_.max_cost_bytes) {
    return Status::Overloaded(StrFormat(
        "request of %llu bytes exceeds the remaining cost budget "
        "(%llu of %llu bytes in use)",
        static_cast<unsigned long long>(cost_bytes),
        static_cast<unsigned long long>(cost_bytes_),
        static_cast<unsigned long long>(options_.max_cost_bytes)));
  }

  ++queued_;
  cost_bytes_ += cost_bytes;
  UpdateGauges();

  while (inflight_ >= options_.max_inflight) {
    if (hard_stop != nullptr && hard_stop->cancelled()) {
      --queued_;
      cost_bytes_ -= cost_bytes;
      UpdateGauges();
      return Status::Cancelled("server stopped while the request was queued");
    }
    if (deadline.expired()) {
      --queued_;
      cost_bytes_ -= cost_bytes;
      UpdateGauges();
      return Status::DeadlineExceeded(
          "request deadline expired while queued for an execution slot");
    }
    slot_free_.wait_for(lock, kWaitSlice);
  }

  --queued_;
  ++inflight_;
  UpdateGauges();
  return Status::Ok();
}

void AdmissionController::Release(uint64_t cost_bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_ = inflight_ > 0 ? inflight_ - 1 : 0;
    cost_bytes_ = cost_bytes_ > cost_bytes ? cost_bytes_ - cost_bytes : 0;
    UpdateGauges();
  }
  slot_free_.notify_one();
}

void AdmissionController::BeginDrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    UpdateGauges();
  }
  // Queued waiters re-check state on wake; hard_stop (if tripped later)
  // is what actually evicts them.
  slot_free_.notify_all();
}

bool AdmissionController::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

size_t AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

size_t AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

}  // namespace colscope::server
