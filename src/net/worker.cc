#include "net/worker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "exchange/exchange.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "scoping/collaborative.h"
#include "scoping/model_io.h"

namespace colscope::net {

struct WorkerServer::State {
  const scoping::SignatureSet* signatures = nullptr;
  WorkerOptions options;
  Listener listener;
  std::atomic<bool> stop{false};

  std::mutex mu;
  /// Set by kAssign (guarded by mu).
  std::optional<AssignConfig> config;
  /// publisher -> published serialized versions, oldest first (guarded
  /// by mu). kStale serves versions.front(), healthy fetches the back.
  std::map<int, std::vector<std::string>> models;
};

namespace {

using State = WorkerServer::State;

/// Adopts the run's trace context on this handler thread: every span the
/// worker records from here on shares the coordinator's trace id. The
/// assign and assess handlers are the only worker paths that touch the
/// tracer (and through it the trace clock) — the coordinator drives them
/// strictly sequentially, which is what keeps harvested traces
/// byte-reproducible under SimulatedTraceClock. Returns the tracer (may
/// be null).
obs::Tracer* AdoptTrace(State& state, const TraceContext& trace,
                        const char* thread_name) {
  obs::Tracer* tracer = state.options.net.tracer;
  if (tracer != nullptr) {
    if (trace.trace_id != 0) tracer->set_trace_id(trace.trace_id);
    tracer->NameThisThread(thread_name);
  }
  return tracer;
}

void HandleAssign(State& state, Socket& socket, const Frame& frame) {
  Result<AssignConfig> config = DecodeAssign(frame.payload);
  if (!config.ok()) {
    SendError(socket, config.status(), state.options.net);
    return;
  }
  // The assign span parents under the coordinator's rpc.assign span.
  obs::Tracer* tracer = AdoptTrace(state, config->trace, "assign");
  std::vector<std::pair<int, std::string>> fitted;  // (schema, model)
  {
    obs::ScopedSpan span(tracer, "worker.assign");
    span.set_parent(config->trace.parent_span);
    span.AddArg("schemas", static_cast<long long>(config->shard.size()));
    const std::vector<size_t> shard(config->shard.begin(),
                                    config->shard.end());
    Result<std::vector<scoping::LocalModel>> models =
        scoping::FitLocalModelsOf(*state.signatures, shard, config->v,
                                  nullptr, state.options.net.cancel);
    if (!models.ok()) {
      obs::FlightRecorder::Global().Record(
          "serve", StrFormat("assign %s",
                             StatusCodeToString(models.status().code())));
      SendError(socket, models.status(), state.options.net);
      return;
    }
    for (const scoping::LocalModel& model : *models) {
      fitted.emplace_back(model.schema_index(),
                          scoping::SerializeLocalModel(model));
    }
  }
  obs::FlightRecorder::Global().Record(
      "serve", StrFormat("assign schemas=%zu ok", config->shard.size()));
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.config = std::move(config).value();
    for (auto& [schema, payload] : fitted) {
      state.models[schema].push_back(std::move(payload));
    }
  }
  (void)socket.SendFrame(FrameType::kAssignAck,
                         StrFormat("ok %zu", fitted.size()),
                         state.options.net);
  if (state.options.crash_after_assign) {
    // The deterministic mid-exchange death of the quorum ctest: the ack
    // is on the wire, the models are published, and the process dies
    // before any peer can fetch them.
    raise(SIGKILL);
  }
}

void HandleGetModel(State& state, Socket& socket, const Frame& frame) {
  Result<GetModelRequest> request = DecodeGetModel(frame.payload);
  if (!request.ok()) {
    SendError(socket, request.status(), state.options.net);
    return;
  }
  FaultProfile faults;
  std::string fresh;
  std::string oldest;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.config.has_value()) {
      SendError(socket,
                Status::FailedPrecondition("worker has no assignment yet"),
                state.options.net);
      return;
    }
    const auto versions = state.models.find(request->publisher);
    if (versions == state.models.end() || versions->second.empty()) {
      // Permanent, exactly like fetching an unpublished in-memory model:
      // the retry loop treats NotFound as not worth retrying.
      SendError(socket,
                Status::NotFound(StrFormat("schema %d model not published "
                                           "on this worker",
                                           request->publisher)),
                state.options.net);
      return;
    }
    faults = state.config->faults;
    fresh = versions->second.back();
    oldest = versions->second.front();
  }

  // Network partition: the connection is accepted and the request read,
  // but no reply byte ever comes — the fetcher stalls until its io
  // timeout or run deadline fires. Distinct from kDrop, whose EOF is
  // immediate. The stall polls the stop flag and is capped by this
  // worker's own io timeout so Serve() can still join the thread.
  if (faults.partition_from >= 0 &&
      request->publisher == faults.partition_from) {
    obs::FlightRecorder::Global().Record(
        "serve",
        StrFormat("get_model publisher=%d consumer=%d attempt=%d "
                  "fault=partition",
                  request->publisher, request->consumer, request->attempt));
    constexpr double kStallTickMs = 10.0;
    double stalled_ms = 0.0;
    while (!state.stop.load() &&
           stalled_ms < state.options.net.io_timeout_ms) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(kStallTickMs));
      stalled_ms += kStallTickMs;
    }
    return;
  }

  // Server-side fault injection: the same deterministic
  // (publisher, consumer, attempt) stream as the in-memory transport,
  // realized at the socket layer.
  const FaultInjector injector{faults};
  const FaultInjector::Decision decision =
      injector.Decide(static_cast<uint64_t>(request->publisher),
                      static_cast<uint64_t>(request->consumer),
                      static_cast<uint64_t>(request->attempt), fresh.size());
  // Flight-recorded (counters only — this handler runs concurrently with
  // assessments, so it must never touch the tracer or its clock).
  obs::FlightRecorder::Global().Record(
      "serve",
      StrFormat("get_model publisher=%d consumer=%d attempt=%d fault=%s",
                request->publisher, request->consumer, request->attempt,
                FaultKindToString(decision.kind)));
  switch (decision.kind) {
    case FaultKind::kDrop:
      // Close without responding; the fetcher sees EOF before any frame
      // byte and classifies a drop.
      return;
    case FaultKind::kDelay: {
      const auto wait =
          std::chrono::duration<double, std::milli>(decision.latency_ms);
      std::this_thread::sleep_for(wait);
      (void)socket.SendFrame(FrameType::kModel, fresh, state.options.net);
      return;
    }
    case FaultKind::kTruncate: {
      // Mid-frame wire truncation: a strict prefix of the encoded frame,
      // then EOF. The fetcher's RecvFrame dies inside the payload.
      const std::string encoded = EncodeFrame(FrameType::kModel, fresh);
      const size_t cut =
          std::min(encoded.size(), kFrameHeaderSize + decision.truncate_at);
      (void)socket.SendAll(std::string_view(encoded).substr(0, cut),
                           state.options.net);
      return;
    }
    case FaultKind::kCorrupt: {
      // Flip one payload byte *before* framing, so the checksum honestly
      // covers the corrupted bytes and the frame arrives intact — like
      // the in-memory transport, the defect is only detectable by
      // parsing the payload, which is what the fetch retry loop does.
      std::string corrupted = fresh;
      if (!corrupted.empty()) {
        corrupted[decision.corrupt_pos % corrupted.size()] ^=
            static_cast<char>(decision.corrupt_mask);
      }
      (void)socket.SendFrame(FrameType::kModel, corrupted,
                             state.options.net);
      return;
    }
    case FaultKind::kStale:
      (void)socket.SendFrame(FrameType::kModel, oldest, state.options.net);
      return;
    case FaultKind::kNone:
      (void)socket.SendFrame(FrameType::kModel, fresh, state.options.net);
      return;
  }
}

void HandleAssess(State& state, Socket& socket, const Frame& frame) {
  Result<AssessRequest> request = DecodeAssess(frame.payload);
  if (!request.ok()) {
    SendError(socket, request.status(), state.options.net);
    return;
  }
  AssignConfig config;
  std::map<int, std::vector<std::string>> models;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.config.has_value()) {
      SendError(socket,
                Status::FailedPrecondition("worker has no assignment yet"),
                state.options.net);
      return;
    }
    config = *state.config;
    models = state.models;
  }
  obs::Tracer* tracer = AdoptTrace(state, request->trace, "assess");
  // All assessment telemetry — spans included — is committed before the
  // kPartial reply goes out: the moment the coordinator holds the reply
  // it may harvest (kStatsRequest, served on another thread), and the
  // stats snapshot must already reflect this round.
  PartialResult partial;
  {
    obs::ScopedSpan span(tracer, "worker.assess");
    span.set_parent(request->trace.parent_span);
    span.AddArg("consumers", static_cast<long long>(config.shard.size()));

    // Foreign models come over the wire; the worker's own shard is
    // served through the transport's embedded in-memory path so local
    // fetches see the same deterministic fault stream as a
    // single-process run.
    TcpTransport transport(config.owners, FaultInjector{config.faults},
                           state.options.net);
    for (const auto& [publisher, versions] : models) {
      for (const std::string& payload : versions) {
        (void)transport.Publish(publisher, payload);
      }
    }

    std::vector<int> consumers = config.shard;
    std::sort(consumers.begin(), consumers.end());

    for (int consumer : consumers) {
      obs::ScopedSpan consumer_span(tracer, "worker.assess.consumer");
      consumer_span.AddArg("consumer", consumer);
      partial.consumers.push_back(AssessConsumerOverTransport(
          *state.signatures, consumer, config, transport, partial.fetches,
          state.options.net));
    }
    obs::FlightRecorder::Global().Record(
        "serve",
        StrFormat("assess consumers=%zu ok", partial.consumers.size()));
  }

  (void)socket.SendFrame(FrameType::kPartial, EncodePartial(partial),
                         state.options.net);
}

void HandleConnection(State& state, Socket socket) {
  Result<Frame> frame = socket.RecvFrame(state.options.net);
  if (!frame.ok()) {
    COLSCOPE_LOG(Debug) << "worker: dropping connection: "
                        << frame.status().ToString();
    return;
  }
  switch (frame->type) {
    case FrameType::kAssign:
      HandleAssign(state, socket, *frame);
      return;
    case FrameType::kGetModel:
      HandleGetModel(state, socket, *frame);
      return;
    case FrameType::kAssess:
      HandleAssess(state, socket, *frame);
      return;
    case FrameType::kStatsRequest:
      // The coordinator's pre-shutdown telemetry harvest.
      obs::FlightRecorder::Global().Record("serve", "stats ok");
      SendStats(socket, state.options.net.tracer, state.options.net.metrics,
                state.options.net);
      return;
    case FrameType::kShutdown:
      state.stop.store(true);
      obs::FlightRecorder::Global().Record("serve", "shutdown ok");
      (void)socket.SendFrame(FrameType::kShutdownAck, "", state.options.net);
      return;
    default:
      SendError(socket,
                Status::InvalidArgument(StrFormat(
                    "worker cannot serve frame type %u",
                    static_cast<unsigned>(frame->type))),
                state.options.net);
      return;
  }
}

}  // namespace

uint16_t WorkerServer::port() const { return state_->listener.port(); }

void WorkerServer::RequestStop() { state_->stop.store(true); }

Result<WorkerServer> WorkerServer::Create(
    const scoping::SignatureSet* signatures, WorkerOptions options) {
  if (signatures == nullptr) {
    return Status::InvalidArgument("worker needs a signature set");
  }
  Result<Listener> listener = Listener::Bind(options.listen);
  if (!listener.ok()) return listener.status();

  WorkerServer server;
  server.state_ = std::make_shared<State>();
  server.state_->signatures = signatures;
  server.state_->listener = std::move(listener).value();
  server.state_->options = std::move(options);
  if (!server.state_->options.port_file.empty()) {
    COLSCOPE_RETURN_IF_ERROR(WritePortFile(server.state_->options.port_file,
                                           server.state_->listener.port()));
  }
  COLSCOPE_LOG(Info) << "worker listening on port "
                     << server.state_->listener.port();
  return server;
}

Status WorkerServer::Serve() {
  std::shared_ptr<State> state = state_;
  ServeLoop::Hooks hooks;
  hooks.handle = [state](Socket socket) {
    HandleConnection(*state, std::move(socket));
  };
  hooks.stop = [state] { return state->stop.load(); };
  ServeLoop loop;
  return loop.Serve(state->listener, state->options.net, hooks);
}

}  // namespace colscope::net
