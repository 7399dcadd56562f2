#include "net/coordinator.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace colscope::net {

namespace {

/// Flight-recorder label of one RPC round outcome: "ok", the status code
/// name, or "unexpected_reply" — never messages (they can embed ports).
const char* RpcOutcome(const Result<Frame>& reply, FrameType want) {
  if (!reply.ok()) return StatusCodeToString(reply.status().code());
  return reply->type == want ? "ok" : "unexpected_reply";
}

void RecordRpcFlight(const char* what, size_t worker,
                     const char* outcome) {
  obs::FlightRecorder::Global().Record(
      "rpc", StrFormat("%s worker=%zu %s", what, worker, outcome));
}

}  // namespace

Result<DistributedScopeResult> DistributedScope(
    const scoping::SignatureSet& signatures, size_t num_schemas,
    const std::vector<Endpoint>& workers, AssignConfig run,
    const NetOptions& net) {
  if (workers.empty()) {
    return Status::InvalidArgument("distributed run needs >= 1 worker");
  }
  if (num_schemas < 2) {
    return Status::InvalidArgument(
        "collaborative scoping needs >= 2 schemas");
  }

  const size_t num_workers = workers.size();
  run.num_schemas = num_schemas;
  run.owners.clear();
  std::vector<std::vector<int>> shards(num_workers);
  for (size_t schema = 0; schema < num_schemas; ++schema) {
    run.owners[static_cast<int>(schema)] = workers[schema % num_workers];
    shards[schema % num_workers].push_back(static_cast<int>(schema));
  }

  DistributedScopeResult result;
  result.owners = run.owners;

  obs::Tracer* tracer = net.tracer;
  const uint64_t trace_id = tracer != nullptr ? tracer->trace_id() : 0;

  // Round 1: ship every worker its assignment; it fits and publishes its
  // shard's models before acking. A worker that cannot be assigned is
  // lost — its schemas degrade exactly like a mid-run death. Each RPC
  // records an rpc.assign span whose id rides the payload, so the
  // worker's fitting span parents under it in the merged trace.
  std::vector<bool> lost(num_workers, false);
  for (size_t w = 0; w < num_workers; ++w) {
    if (shards[w].empty()) continue;
    AssignConfig config = run;
    config.shard = shards[w];
    Result<Frame> ack = Status::Internal("rpc not attempted");
    {
      obs::ScopedSpan span(tracer, "rpc.assign");
      span.AddArg("worker", static_cast<long long>(w));
      config.trace.trace_id = trace_id;
      config.trace.parent_span = span.id();
      ack = Call(workers[w], FrameType::kAssign, EncodeAssign(config), net);
    }
    RecordRpcFlight("assign", w, RpcOutcome(ack, FrameType::kAssignAck));
    if (!ack.ok() || ack->type != FrameType::kAssignAck) {
      lost[w] = true;
      COLSCOPE_LOG(Warn) << "coordinator: worker " << w << " ("
                         << workers[w].ToString()
                         << ") lost at assignment: "
                         << (ack.ok() ? "unexpected reply frame"
                                      : ack.status().ToString());
    }
  }

  // Round 2: collect each surviving worker's combiner-style partial
  // reduction. Sequential on purpose: workers serve sibling kGetModel
  // requests on their own connection threads, so no cross-worker
  // dependency can deadlock, and the merged result stays deterministic.
  std::vector<std::optional<ConsumerPartial>> partials(num_schemas);
  std::vector<exchange::PeerFetchRecord> records;
  for (size_t w = 0; w < num_workers; ++w) {
    if (lost[w] || shards[w].empty()) continue;
    Result<Frame> reply = Status::Internal("rpc not attempted");
    {
      obs::ScopedSpan span(tracer, "rpc.assess");
      span.AddArg("worker", static_cast<long long>(w));
      AssessRequest request;
      request.trace.trace_id = trace_id;
      request.trace.parent_span = span.id();
      reply = Call(workers[w], FrameType::kAssess, EncodeAssess(request),
                   net);
    }
    RecordRpcFlight("assess", w, RpcOutcome(reply, FrameType::kPartial));
    if (!reply.ok() || reply->type != FrameType::kPartial) {
      lost[w] = true;
      COLSCOPE_LOG(Warn) << "coordinator: worker " << w << " ("
                         << workers[w].ToString()
                         << ") lost mid-exchange: "
                         << (reply.ok() ? "unexpected reply frame"
                                        : reply.status().ToString());
      continue;
    }
    Result<PartialResult> partial = DecodePartial(reply->payload);
    if (!partial.ok()) {
      return Status::Internal(StrFormat(
          "worker %zu sent a malformed partial: %s", w,
          partial.status().ToString().c_str()));
    }
    for (ConsumerPartial& consumer : partial->consumers) {
      const size_t index = static_cast<size_t>(consumer.consumer);
      if (index >= num_schemas ||
          std::find(shards[w].begin(), shards[w].end(),
                    consumer.consumer) == shards[w].end()) {
        return Status::Internal(StrFormat(
            "worker %zu answered for schema %d it does not own", w,
            consumer.consumer));
      }
      partials[index] = std::move(consumer);
    }
    for (exchange::PeerFetchRecord& record : partial->fetches) {
      records.push_back(std::move(record));
    }
  }

  // Lost shards: re-execute their consumers' assessments here, fetching
  // from the survivors. A dead worker's publishers refuse connections,
  // so those fetches drop — the same arrival sets (and therefore the
  // same keep bits) as an in-memory exchange with a drop-from fault on
  // the dead worker's schemas.
  std::vector<int> lost_schemas;
  for (size_t w = 0; w < num_workers; ++w) {
    if (!lost[w]) continue;
    result.workers.lost_workers.push_back(w);
    lost_schemas.insert(lost_schemas.end(), shards[w].begin(),
                        shards[w].end());
  }
  std::sort(lost_schemas.begin(), lost_schemas.end());
  if (!lost_schemas.empty()) {
    TcpTransport transport(run.owners, FaultInjector{run.faults}, net);
    for (int consumer : lost_schemas) {
      obs::FlightRecorder::Global().Record(
          "reexec", StrFormat("consumer=%d", consumer));
      obs::ScopedSpan span(tracer, "coordinator.reexec");
      span.AddArg("consumer", consumer);
      partials[static_cast<size_t>(consumer)] = AssessConsumerOverTransport(
          signatures, consumer, run, transport, records, net);
    }
  }

  // Telemetry harvest: ask every surviving worker for its metrics
  // snapshot + trace buffer before any shutdown. Losing a worker's
  // telemetry (dead, unresponsive, or malformed reply) leaves a hole,
  // never an error — the run already survived worse.
  result.workers.telemetry.assign(num_workers, std::nullopt);
  for (size_t w = 0; w < num_workers; ++w) {
    if (lost[w]) {
      RecordRpcFlight("stats", w, "hole");
      continue;
    }
    Result<Frame> reply = Status::Internal("rpc not attempted");
    {
      obs::ScopedSpan span(tracer, "rpc.stats");
      span.AddArg("worker", static_cast<long long>(w));
      reply = Call(workers[w], FrameType::kStatsRequest, "", net);
    }
    if (!reply.ok() || reply->type != FrameType::kStats) {
      RecordRpcFlight("stats", w, RpcOutcome(reply, FrameType::kStats));
      COLSCOPE_LOG(Warn) << "coordinator: no telemetry from worker " << w;
      continue;
    }
    Result<WorkerTelemetry> telemetry = DecodeStats(reply->payload);
    if (!telemetry.ok()) {
      RecordRpcFlight("stats", w, "malformed");
      COLSCOPE_LOG(Warn) << "coordinator: malformed telemetry from worker "
                         << w << ": " << telemetry.status().ToString();
      continue;
    }
    RecordRpcFlight("stats", w, "ok");
    result.workers.telemetry[w] = std::move(telemetry).value();
  }

  // The shared phase-III merge: the first consumer the degradation
  // policy refused fails the whole run with its error.
  std::vector<size_t> arrived_per_schema(num_schemas);
  Result<std::vector<bool>> keep = scoping::MergeConsumerVerdicts(
      signatures, num_schemas,
      [&](int schema) -> Result<std::vector<bool>> {
        const std::optional<ConsumerPartial>& partial =
            partials[static_cast<size_t>(schema)];
        if (!partial.has_value()) {
          return Status::Internal(
              StrFormat("no partial result for schema %d", schema));
        }
        if (!partial->ok) return Status::Unavailable(partial->error);
        arrived_per_schema[static_cast<size_t>(schema)] = partial->arrived;
        return partial->bits;
      },
      &run.degraded, net.metrics);
  if (!keep.ok()) return keep.status();
  result.keep = std::move(keep).value();

  // Deterministic record order regardless of which worker answered
  // first: the consumer-major order ExchangeLocalModels produces.
  std::stable_sort(records.begin(), records.end(),
                   [](const exchange::PeerFetchRecord& a,
                      const exchange::PeerFetchRecord& b) {
                     if (a.consumer != b.consumer) {
                       return a.consumer < b.consumer;
                     }
                     return a.publisher < b.publisher;
                   });
  result.degradation = exchange::BuildDegradationReport(
      records, arrived_per_schema,
      scoping::DegradedPolicyToString(run.degraded.policy), num_schemas);
  return result;
}

void ShutdownWorkers(const std::vector<Endpoint>& workers,
                     const NetOptions& net) {
  for (size_t w = 0; w < workers.size(); ++w) {
    obs::ScopedSpan span(net.tracer, "rpc.shutdown");
    span.AddArg("worker", static_cast<long long>(w));
    Result<Frame> reply = Call(workers[w], FrameType::kShutdown, "", net);
    RecordRpcFlight("shutdown", w, RpcOutcome(reply, FrameType::kShutdownAck));
  }
}

}  // namespace colscope::net
