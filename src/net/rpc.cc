#include "net/rpc.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

#include "net/protocol.h"
#include "net/telemetry.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace colscope::net {

namespace {

constexpr double kAcceptTickMs = 100.0;
constexpr double kIdleTickMs = 10.0;

}  // namespace

Result<Frame> Call(const Endpoint& endpoint, FrameType type,
                   const std::string& payload, const NetOptions& options) {
  const double start_ms = NetNowMs(options);
  Result<Frame> reply = [&]() -> Result<Frame> {
    Result<Socket> socket = Socket::Connect(endpoint, options);
    if (!socket.ok()) return socket.status();
    Status sent = socket->SendFrame(type, payload, options);
    if (!sent.ok()) return sent;
    return socket->RecvFrame(options);
  }();
  ObserveRpcLatency(options, type, NetNowMs(options) - start_ms);
  if (reply.ok() && reply->type == FrameType::kError) {
    return DecodeErrorPayload(reply->payload);
  }
  return reply;
}

Status WritePortFile(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::Internal("cannot open port file: " + tmp);
    out << port << "\n";
    if (!out.flush()) {
      return Status::Internal("cannot write port file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("cannot rename port file into place: " + path);
  }
  return Status::Ok();
}

void SendError(Socket& socket, const Status& status,
               const NetOptions& options) {
  (void)socket.SendFrame(FrameType::kError, EncodeErrorPayload(status),
                         options);
}

void SendStats(Socket& socket, obs::Tracer* tracer,
               obs::MetricsRegistry* metrics, const NetOptions& options) {
  WorkerTelemetry telemetry;
  if (tracer != nullptr) {
    telemetry.trace_id = tracer->trace_id();
    telemetry.thread_names = tracer->ThreadNames();
    telemetry.events = tracer->Events();
  }
  if (metrics != nullptr) telemetry.metrics = metrics->Snapshot();
  (void)socket.SendFrame(FrameType::kStats, EncodeStats(telemetry), options);
}

ServeLoop::~ServeLoop() {
  for (Handler& handler : handlers_) handler.thread.join();
}

Status ServeLoop::Serve(Listener& listener, const NetOptions& options,
                        const Hooks& hooks) {
  Status failure;
  while (!hooks.stop()) {
    Result<Socket> socket = listener.Accept(kAcceptTickMs, options);
    Reap();
    if (!socket.ok()) {
      if (socket.status().code() == StatusCode::kNotFound) continue;
      if (socket.status().code() != StatusCode::kCancelled) {
        failure = socket.status();
      }
      break;
    }
    if (hooks.admit && !hooks.admit(*socket)) continue;
    auto done = std::make_unique<std::atomic<bool>>(false);
    std::thread thread([&handle = hooks.handle, flag = done.get(),
                        socket = std::move(socket).value()]() mutable {
      handle(std::move(socket));
      flag->store(true);
    });
    handlers_.push_back({std::move(thread), std::move(done)});
  }
  if (hooks.drain) hooks.drain();
  for (Handler& handler : handlers_) handler.thread.join();
  handlers_.clear();
  return failure;
}

size_t ServeLoop::active() const {
  size_t running = 0;
  for (const Handler& handler : handlers_) running += !handler.done->load();
  return running;
}

bool ServeLoop::WaitIdle(double max_ms) {
  for (double waited = 0.0; active() > 0 && waited < max_ms;
       waited += kIdleTickMs) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(kIdleTickMs));
    Reap();
  }
  return active() == 0;
}

void ServeLoop::Reap() {
  std::erase_if(handlers_, [](Handler& handler) {
    if (!handler.done->load()) return false;
    handler.thread.join();
    return true;
  });
}

}  // namespace colscope::net
