#ifndef COLSCOPE_NET_RPC_H_
#define COLSCOPE_NET_RPC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "net/socket.h"

namespace colscope::obs {
class MetricsRegistry;
class Tracer;
}  // namespace colscope::obs

// Both ends of the one-request-per-connection frame wire, shared by the
// worker/coordinator pair and by colscoped and its clients.
namespace colscope::net {

/// One request/reply round trip on a fresh connection, observed into
/// net.rpc_ms.<type> (connect through reply, failures included). A
/// kError reply is unwrapped into its carried status.
Result<Frame> Call(const Endpoint& endpoint, FrameType type,
                   const std::string& payload, const NetOptions& options);

/// Writes `port` to `path` atomically (tmp + rename), so a polling
/// harness never reads a half-written number.
Status WritePortFile(const std::string& path, uint16_t port);

/// Replies kError carrying `status`; best effort, since the requester
/// also handles an abrupt close.
void SendError(Socket& socket, const Status& status,
               const NetOptions& options);

/// Replies kStats with `metrics`' snapshot and `tracer`'s trace id,
/// thread names and spans (either may be null). Span- and clock-free:
/// it runs outside any deterministic request sequence, so it must report
/// the telemetry without perturbing it.
void SendStats(Socket& socket, obs::Tracer* tracer,
               obs::MetricsRegistry* metrics, const NetOptions& options);

/// The thread-per-connection loop every frame server runs: 100 ms accept
/// ticks that re-check the stop condition, one handler thread per
/// connection, finished threads joined after every tick (so a
/// long-lived server's stacks are reclaimed while it serves), and every
/// thread joined before Serve() returns. Only the serving thread (and so
/// the hooks) may call active() and WaitIdle().
class ServeLoop {
 public:
  struct Hooks {
    /// Serves one connection, on that connection's thread.
    std::function<void(Socket)> handle;
    /// Polled before every accept tick; true ends accepting.
    std::function<bool()> stop;
    /// Optional; runs before a handler is spawned. False refuses the
    /// connection (the hook sends any reply).
    std::function<bool(Socket&)> admit;
    /// Optional; runs once accepting ended, before the final join: the
    /// place for a drain policy.
    std::function<void()> drain;
  };

  ServeLoop() = default;
  ~ServeLoop();
  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  /// Serves until hooks.stop(), a tripped `options.cancel`, or a
  /// listener failure; then drains and joins. Returns Ok, or the
  /// listener's failure once every thread has been joined.
  Status Serve(Listener& listener, const NetOptions& options,
               const Hooks& hooks);

  /// Handler threads still running.
  size_t active() const;

  /// Waits up to `max_ms` for every handler to finish, joining them as
  /// they do; true when none is left.
  bool WaitIdle(double max_ms);

 private:
  struct Handler {
    std::thread thread;
    /// Set by the thread once its handler returned.
    std::unique_ptr<std::atomic<bool>> done;
  };
  /// Joins the handlers that have returned.
  void Reap();

  std::vector<Handler> handlers_;
};

}  // namespace colscope::net

#endif  // COLSCOPE_NET_RPC_H_
