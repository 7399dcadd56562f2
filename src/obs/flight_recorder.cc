#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstring>
#include <thread>

namespace colscope::obs {

namespace {

void CopyTruncated(char* dst, size_t dst_cap, std::string_view src) {
  const size_t n = std::min(src.size(), dst_cap);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(new Slot[capacity == 0 ? 1 : capacity]) {}

FlightRecorder::~FlightRecorder() { delete[] slots_; }

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Slot::Lock() const {
  while (busy.test_and_set(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

void FlightRecorder::Record(std::string_view kind, std::string_view detail) {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(ticket - 1) % capacity_];
  slot.Lock();
  // A writer that lapped the ring may already have stored a newer event
  // here; the ring keeps the newest, so this one is dropped.
  if (slot.ticket < ticket) {
    slot.ticket = ticket;
    CopyTruncated(slot.kind, kMaxKindBytes, kind);
    CopyTruncated(slot.detail, kMaxDetailBytes, detail);
  }
  slot.Unlock();
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  const uint64_t high = next_.load(std::memory_order_acquire);
  const uint64_t low = high > capacity_ ? high - capacity_ + 1 : 1;
  std::vector<FlightEvent> events;
  events.reserve(high >= low ? static_cast<size_t>(high - low + 1) : 0);
  for (uint64_t ticket = low; ticket <= high; ++ticket) {
    const Slot& slot = slots_[(ticket - 1) % capacity_];
    // Copy out under the lock, allocate after releasing it.
    char kind[kMaxKindBytes + 1];
    char detail[kMaxDetailBytes + 1];
    slot.Lock();
    const bool live = slot.ticket == ticket;
    if (live) {
      std::memcpy(kind, slot.kind, sizeof(kind));
      std::memcpy(detail, slot.detail, sizeof(detail));
    }
    slot.Unlock();
    if (live) events.push_back(FlightEvent{ticket, kind, detail});
  }
  return events;
}

void FlightRecorder::Clear() {
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].ticket = 0;
    slots_[i].kind[0] = '\0';
    slots_[i].detail[0] = '\0';
  }
  next_.store(0, std::memory_order_release);
}

}  // namespace colscope::obs
