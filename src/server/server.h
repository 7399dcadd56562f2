#ifndef COLSCOPE_SERVER_SERVER_H_
#define COLSCOPE_SERVER_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/socket.h"
#include "server/protocol.h"

namespace colscope::server {

/// Configuration of the resident `colscoped` daemon. Defaults are sized
/// for a small deployment; every limit exists to convert overload into
/// typed kOverloaded rejections instead of memory growth.
struct ScopeServerOptions {
  net::Endpoint listen;          ///< Port 0 binds an ephemeral port.
  /// When non-empty, the bound port is written here atomically
  /// (tmp + rename) — the harness plumbing for ephemeral ports.
  std::string port_file;
  /// Admission bounds (see admission.h).
  size_t max_queue = 16;
  size_t max_inflight = 2;
  uint64_t max_cost_bytes = 256ull << 20;
  /// Concurrent connections; excess connections get an immediate
  /// kOverloaded error frame and a close.
  size_t max_connections = 32;
  /// Default per-request deadline, measured from admission so queue wait
  /// counts against it. Requests may carry their own (smaller or larger)
  /// deadline; non-positive means no deadline.
  double request_deadline_ms = 30000.0;
  /// How long a SIGTERM-initiated drain waits for in-flight work before
  /// hard-cancelling it (the stragglers still get typed error replies).
  double drain_grace_ms = 5000.0;
  /// How long an accepted connection may sit idle before its first
  /// request frame; expiry closes the connection.
  double idle_timeout_ms = 10000.0;
  /// Test hook: sleep this long inside each request's execution slot
  /// before running the pipeline, making overload and mid-request drain
  /// deterministic to provoke.
  double serve_delay_ms = 0.0;
  /// Resident content-addressed artifact cache; empty disables caching.
  /// The cache is opened once and shared across every request, so warm
  /// requests skip recomputation — and survive a restart, since the
  /// store is on disk.
  std::string cache_dir;
  uint64_t cache_max_bytes = 0;
  /// Worker threads per request's pipeline run (1 = serial). Reports are
  /// byte-identical at any setting.
  size_t threads = 1;
  /// Borrowed registry for the server.* instruments; null makes the
  /// server own one (health and the kStats reply always read a registry).
  obs::MetricsRegistry* metrics = nullptr;
  /// Socket discipline for request/response frames (io timeout, tracer,
  /// metrics). The cancel field is overridden internally by the drain
  /// hard-stop token.
  net::NetOptions net;
};

/// The long-running scoping daemon: keeps the encoder, artifact cache,
/// and detector resident, and serves kScopeRequest / kStatsRequest /
/// kShutdown over the frame protocol on the worker's serving loop
/// (net::ServeLoop) — one request per connection. kStatsRequest gets the
/// same colscope-stats v1 reply a distributed worker sends; health is a
/// view over it (HealthFromMetrics). Robustness lifecycle:
///
///   accept -> admit (bounded queue, cost budget) -> execute under the
///   request deadline -> reply | typed kError
///
/// SIGTERM (via InstallSignalHandlers) or RequestDrain() starts a
/// graceful drain: the listener closes (new connections are refused),
/// queued-but-unadmitted requests are rejected with kOverloaded,
/// in-flight requests finish or deadline out within drain_grace_ms, and
/// Serve() returns Ok so the process can flush telemetry and exit 0. A
/// listener failure (e.g. accept hitting the descriptor limit) drains
/// the same way, then Serve() returns the failure.
class ScopeServer {
 public:
  static Result<ScopeServer> Create(ScopeServerOptions options);

  uint16_t port() const;

  /// Serves until a drain completes. Returns Ok after a clean drain;
  /// after a listener-level failure, drains and returns that failure.
  Status Serve();

  /// Thread-safe drain trigger (the programmatic SIGTERM).
  void RequestDrain();

  /// Installs SIGTERM + SIGINT handlers that trigger a drain of the
  /// process-wide current server (the one that most recently called
  /// this). Handlers only set a sig_atomic_t flag; the serve loop polls
  /// it between accept ticks.
  void InstallSignalHandlers();

  /// Current lifecycle + accounting snapshot: the view RequestHealth
  /// computes from a kStats reply, read from the server's own registry.
  HealthInfo Health() const;

  struct State;

 private:
  std::shared_ptr<State> state_;
};

}  // namespace colscope::server

#endif  // COLSCOPE_SERVER_SERVER_H_
