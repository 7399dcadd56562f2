#ifndef COLSCOPE_OBS_FLIGHT_RECORDER_H_
#define COLSCOPE_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace colscope::obs {

/// One entry read out of a FlightRecorder ring: a monotonically
/// increasing per-process sequence number, a short event class
/// ("rpc", "serve", "fetch", "retry", ...), and a bounded free-form
/// detail string. Details deliberately carry worker indices and status
/// code names — never endpoints, ports, or wall-clock times — so a dump
/// from a deterministic run is byte-identical across repeats.
struct FlightEvent {
  uint64_t seq = 0;
  std::string kind;
  std::string detail;
};

/// Bounded ring holding the last N RPC/fault/retry events of this
/// process — the "what was everyone doing right before it died" record
/// dumped into the degradation report on crash, quorum loss, or
/// deadline. Writers claim a ticket with one fetch_add and fill their
/// slot under that slot's spin lock, held only for two bounded byte
/// copies; no allocation and no shared lock, so it is safe to call from
/// any hot path or connection handler. The per-slot lock makes two
/// writers that lap the ring onto one slot, or a writer and a reader,
/// take turns instead of racing; the slot keeps the newer ticket.
class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;
  /// Longer kinds/details are truncated to these many bytes.
  static constexpr size_t kMaxKindBytes = 23;
  static constexpr size_t kMaxDetailBytes = 111;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide recorder used by the net/exchange instrumentation.
  static FlightRecorder& Global();

  /// Appends an event, overwriting the oldest once the ring is full.
  void Record(std::string_view kind, std::string_view detail);

  /// The surviving events in sequence order (oldest first). Slots
  /// overwritten by a newer ticket are skipped, never torn.
  std::vector<FlightEvent> Snapshot() const;

  /// Number of events ever recorded (not just those still in the ring).
  uint64_t total_recorded() const { return next_.load(); }

  /// Drops all events and restarts sequence numbers at 1. Not safe
  /// against concurrent writers — for test setup and run boundaries.
  void Clear();

  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    /// Guards every field below.
    mutable std::atomic_flag busy;
    /// Ticket of the event held in kind/detail; 0 while empty.
    uint64_t ticket = 0;
    char kind[kMaxKindBytes + 1];
    char detail[kMaxDetailBytes + 1];

    void Lock() const;
    void Unlock() const { busy.clear(std::memory_order_release); }
  };

  const size_t capacity_;
  Slot* slots_;
  std::atomic<uint64_t> next_{0};
};

}  // namespace colscope::obs

#endif  // COLSCOPE_OBS_FLIGHT_RECORDER_H_
