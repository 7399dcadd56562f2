#include "server/server.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "cache/artifact_cache.h"
#include "common/cancellation.h"
#include "common/strings.h"
#include "embed/hashed_encoder.h"
#include "matching/matcher.h"
#include "net/frame.h"
#include "net/rpc.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "outlier/pca_oda.h"
#include "pipeline/pipeline.h"
#include "pipeline/report.h"
#include "server/admission.h"

namespace colscope::server {

namespace {

/// Drain / execution-delay poll tick.
constexpr auto kDrainTick = std::chrono::milliseconds(10);

/// Set by the SIGTERM/SIGINT handlers; polled by the serve loop. One
/// daemon per process (the CLI's serve role), so process-wide state is
/// the honest scope — and the only kind a signal handler may touch.
/// A lock-free atomic rather than a volatile sig_atomic_t: the serve loop
/// reads it from its own thread while InstallSignalHandlers may reset it
/// from another.
std::atomic<int> g_drain_signal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "a signal handler may only touch lock-free atomics");

void DrainSignalHandler(int /*signum*/) { g_drain_signal = 1; }

}  // namespace

struct ScopeServer::State {
  ScopeServerOptions options;
  /// The server.* instruments' registry: options.metrics, or owned_metrics
  /// when none was borrowed. Health and the kStats reply read it.
  obs::MetricsRegistry owned_metrics;
  obs::MetricsRegistry* metrics;
  net::Listener listener;
  /// Resident per-process state the daemon exists to keep warm.
  embed::HashedLexiconEncoder encoder;
  outlier::PcaDetector detector{0.5};
  std::optional<cache::ArtifactCache> cache;
  SystemRunClock clock;
  AdmissionController admission;
  /// Tripped when the drain grace expires: queued admissions and
  /// in-flight pipeline runs stop at their next check.
  CancellationToken hard_stop;
  std::atomic<bool> drain_requested{false};

  explicit State(ScopeServerOptions opts)
      : options(std::move(opts)),
        metrics(options.metrics != nullptr ? options.metrics
                                           : &owned_metrics),
        admission(AdmissionOptions{
            options.max_queue,
            options.max_inflight > 0 ? options.max_inflight : 1,
            options.max_cost_bytes, metrics}) {}
};

namespace {

using State = ScopeServer::State;

void Count(State& state, const char* name) {
  state.metrics->GetCounter(name).Increment();
}

/// Executes one admitted request and returns the reply payload or the
/// typed error to send. The admission slot is held by the caller.
Result<std::string> ExecuteScope(State& state, const ScopeRequest& request,
                                 const Deadline& deadline) {
  if (state.options.serve_delay_ms > 0.0) {
    // Deterministic-overload test hook: occupy the execution slot
    // without burning CPU, checking the hard stop so drain still works.
    double slept = 0.0;
    while (slept < state.options.serve_delay_ms &&
           !state.hard_stop.cancelled()) {
      std::this_thread::sleep_for(kDrainTick);
      slept += 10.0;
    }
  }
  // The slot wait (and the test-hook delay above) may have consumed the
  // whole budget; catch it here so an expired deadline can never read as
  // "no deadline" below (the pipeline treats a non-positive budget as
  // infinite).
  if (!deadline.infinite() && deadline.expired()) {
    return Status::DeadlineExceeded(
        "request deadline expired before execution started");
  }

  Result<schema::SchemaSet> set = pipeline::BuildSchemaSet(request.schemas);
  if (!set.ok()) return set.status();

  // The request carries only the matcher's name and parameter; every
  // other knob keeps the cold CLI's default.
  matching::MatcherSpec spec;
  spec.name = request.matcher;
  spec.param = request.param;
  std::unique_ptr<matching::Matcher> matcher = matching::MakeMatcher(spec);
  if (matcher == nullptr) {
    return Status::InvalidArgument("unknown matcher: " + request.matcher);
  }

  pipeline::PipelineOptions options;
  options.explained_variance = request.v;
  options.keep_portion = request.keep_portion;
  options.num_threads = state.options.threads;
  Result<pipeline::ScoperKind> scoper =
      pipeline::ParseScoperKind(request.scoper);
  if (!scoper.ok()) return scoper.status();
  options.scoper = *scoper;
  if (options.scoper == pipeline::ScoperKind::kGlobalScoping) {
    options.detector = &state.detector;
  }
  // The resident cache, shared across requests; the run must not open
  // its own.
  if (state.cache.has_value()) options.cache = &*state.cache;
  // Remaining (post-queue) budget; the run opens its own Deadline on the
  // server clock. No tracer and no metrics: the cold CLI's --json run is
  // uninstrumented too, and instrumented reports embed a metrics block —
  // byte-identity demands the same shape here.
  options.clock = &state.clock;
  if (!deadline.infinite()) options.deadline_ms = deadline.remaining_ms();
  options.cancel = &state.hard_stop;

  pipeline::Pipeline pipe(&state.encoder, options);
  Result<pipeline::PipelineRun> run = pipe.Run(*set, *matcher);
  if (!run.ok()) return run.status();
  if (!run->status.ok()) {
    // The run stopped early at a phase boundary (request deadline or
    // drain hard stop). The daemon replies with the typed status rather
    // than a partial report: a caller that wanted partial artifacts
    // would have run the CLI; a server client needs an unambiguous
    // retry signal.
    return run->status;
  }
  return pipeline::RunToJson(*run, *set);
}

void HandleScope(State& state, net::Socket& socket, const net::Frame& frame,
                 const net::NetOptions& net) {
  Result<ScopeRequest> request = DecodeScopeRequest(frame.payload);
  if (!request.ok()) {
    Count(state, "server.requests_failed");
    net::SendError(socket, request.status(), net);
    return;
  }

  // The deadline starts at admission: a request that waits out its
  // budget in the queue is answered kDeadlineExceeded without ever
  // holding an execution slot.
  const double budget_ms = request->deadline_ms > 0.0
                               ? request->deadline_ms
                               : state.options.request_deadline_ms;
  const Deadline deadline =
      budget_ms > 0.0 ? Deadline::After(&state.clock, budget_ms)
                      : Deadline::Infinite();

  const uint64_t cost = frame.payload.size();
  const Status admitted =
      state.admission.Admit(cost, deadline, &state.hard_stop);
  if (!admitted.ok()) {
    switch (admitted.code()) {
      case StatusCode::kOverloaded:
        Count(state, "server.requests_shed");
        obs::FlightRecorder::Global().Record(
            "server", StrFormat("shed schemas=%zu overloaded",
                                request->schemas.size()));
        break;
      case StatusCode::kDeadlineExceeded:
        Count(state, "server.requests_deadline_exceeded");
        obs::FlightRecorder::Global().Record(
            "server", StrFormat("timeout schemas=%zu queued",
                                request->schemas.size()));
        break;
      default:
        Count(state, "server.requests_failed");
        break;
    }
    net::SendError(socket, admitted, net);
    return;
  }

  Count(state, "server.requests_admitted");
  const auto started = std::chrono::steady_clock::now();
  Result<std::string> reply = ExecuteScope(state, *request, deadline);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  state.metrics
      ->GetHistogram("server.request_ms",
                     obs::ExponentialBuckets(0.1, 2.0, 16))
      .Observe(elapsed_ms);
  state.admission.Release(cost);

  if (reply.ok()) {
    Count(state, "server.requests_completed");
    (void)socket.SendFrame(net::FrameType::kScopeResponse, *reply, net);
    return;
  }
  if (reply.status().code() == StatusCode::kDeadlineExceeded) {
    Count(state, "server.requests_deadline_exceeded");
    obs::FlightRecorder::Global().Record(
        "server",
        StrFormat("timeout schemas=%zu executing", request->schemas.size()));
  } else {
    Count(state, "server.requests_failed");
  }
  net::SendError(socket, reply.status(), net);
}

void HandleConnection(State& state, net::Socket socket) {
  // Every socket operation of this connection honors the drain hard
  // stop, so a stuck peer cannot outlive the grace period.
  net::NetOptions net = state.options.net;
  net.cancel = &state.hard_stop;

  // Idle timeout on the first (only) request frame.
  net::NetOptions first = net;
  first.io_timeout_ms = state.options.idle_timeout_ms;
  Result<net::Frame> frame = socket.RecvFrame(first);
  if (!frame.ok()) {
    if (frame.status().code() == StatusCode::kDeadlineExceeded) {
      Count(state, "server.idle_timeouts");
      obs::FlightRecorder::Global().Record("server", "idle timeout");
    }
    return;
  }
  switch (frame->type) {
    case net::FrameType::kScopeRequest:
      HandleScope(state, socket, *frame, net);
      return;
    case net::FrameType::kStatsRequest:
      // Bypasses admission: a health probe must answer even (especially)
      // when the server is saturated or draining.
      net::SendStats(socket, state.options.net.tracer, state.metrics, net);
      return;
    case net::FrameType::kShutdown:
      // The programmatic drain trigger, for tests and orchestrators
      // that cannot deliver signals.
      state.drain_requested.store(true);
      obs::FlightRecorder::Global().Record("server", "drain requested rpc");
      (void)socket.SendFrame(net::FrameType::kShutdownAck, "", net);
      return;
    default:
      net::SendError(socket,
                     Status::InvalidArgument(
                         StrFormat("colscoped cannot serve frame type %u",
                                   static_cast<unsigned>(frame->type))),
                     net);
      return;
  }
}

}  // namespace

uint16_t ScopeServer::port() const { return state_->listener.port(); }

void ScopeServer::RequestDrain() { state_->drain_requested.store(true); }

void ScopeServer::InstallSignalHandlers() {
  g_drain_signal = 0;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = DrainSignalHandler;
  sigemptyset(&action.sa_mask);
  // Deliberately no SA_RESTART: interrupted syscalls surface EINTR,
  // which the socket layer retries — the path the daemon must survive.
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

HealthInfo ScopeServer::Health() const {
  // The server pre-registers server.draining, so the view cannot fail.
  return HealthFromMetrics(state_->metrics->Snapshot()).value();
}

Result<ScopeServer> ScopeServer::Create(ScopeServerOptions options) {
  Result<net::Listener> listener = net::Listener::Bind(options.listen);
  if (!listener.ok()) return listener.status();

  ScopeServer server;
  server.state_ = std::make_shared<State>(std::move(options));
  State& state = *server.state_;
  state.listener = std::move(listener).value();

  // Pre-register the headline instruments so an idle snapshot still
  // exports the keys (as zeroes).
  for (const char* name :
       {"server.requests_admitted", "server.requests_shed",
        "server.requests_deadline_exceeded", "server.requests_completed",
        "server.requests_failed", "server.connections_rejected",
        "server.idle_timeouts"}) {
    state.metrics->GetCounter(name);
  }

  if (!state.options.cache_dir.empty()) {
    cache::ArtifactCacheOptions copts;
    copts.dir = state.options.cache_dir;
    copts.max_bytes = state.options.cache_max_bytes;
    copts.metrics = state.metrics;
    Result<cache::ArtifactCache> cache =
        cache::ArtifactCache::Open(std::move(copts));
    if (cache.ok()) {
      state.cache.emplace(std::move(cache).value());
    } else {
      // Same posture as the pipeline: a cache is never a correctness
      // risk, so a broken one disables itself loudly.
      COLSCOPE_LOG(Warn) << "resident artifact cache disabled: "
                         << cache.status().ToString();
    }
  }

  if (!state.options.port_file.empty()) {
    COLSCOPE_RETURN_IF_ERROR(
        net::WritePortFile(state.options.port_file, state.listener.port()));
  }
  COLSCOPE_LOG(Info) << "colscoped listening on port "
                     << state.listener.port();
  return server;
}

Status ScopeServer::Serve() {
  std::shared_ptr<State> state = state_;
  net::ServeLoop loop;
  net::ServeLoop::Hooks hooks;
  hooks.handle = [state](net::Socket socket) {
    HandleConnection(*state, std::move(socket));
  };
  hooks.stop = [state] {
    if (g_drain_signal != 0 && !state->drain_requested.exchange(true)) {
      obs::FlightRecorder::Global().Record("server", "drain requested signal");
    }
    return state->drain_requested.load();
  };
  hooks.admit = [state, &loop](net::Socket& socket) {
    if (loop.active() < state->options.max_connections) return true;
    // Per-connection limit: refuse before spawning anything. The typed
    // error frame tells well-behaved clients to back off.
    Count(*state, "server.connections_rejected");
    obs::FlightRecorder::Global().Record("server", "connection rejected");
    net::SendError(socket,
                   Status::Overloaded(
                       StrFormat("connection limit reached (%zu)",
                                 state->options.max_connections)),
                   state->options.net);
    return false;
  };
  hooks.drain = [state, &loop] {
    obs::FlightRecorder::Global().Record(
        "server", StrFormat("drain begin inflight=%zu queued=%zu",
                            state->admission.inflight(),
                            state->admission.queue_depth()));
    // Stop accepting: new connections are refused at the TCP level, and
    // requests still arriving on accepted connections are rejected with
    // kOverloaded by the admission gate.
    state->admission.BeginDrain();
    state->listener.Close();
    // In-flight (and already-queued) work gets the grace period to
    // finish or deadline out on its own.
    if (!loop.WaitIdle(state->options.drain_grace_ms)) {
      // Grace expired: hard-stop the stragglers. Queued admissions
      // return kCancelled, pipeline runs stop at the next phase
      // boundary, socket waits abort — every affected request still
      // gets a typed error, and the loop's final join terminates.
      obs::FlightRecorder::Global().Record(
          "server", StrFormat("drain grace expired inflight=%zu",
                              state->admission.inflight()));
      state->hard_stop.Cancel();
    }
  };
  const Status served = loop.Serve(state->listener, state->options.net, hooks);
  if (!served.ok()) {
    obs::FlightRecorder::Global().Record(
        "server", StrFormat("listener failed %s",
                            StatusCodeToString(served.code())));
  }
  const HealthInfo health = Health();
  obs::FlightRecorder::Global().Record(
      "server",
      StrFormat("drain complete completed=%llu shed=%llu timeouts=%llu",
                static_cast<unsigned long long>(health.completed),
                static_cast<unsigned long long>(health.shed),
                static_cast<unsigned long long>(health.deadline_exceeded)));
  return served;
}

}  // namespace colscope::server
