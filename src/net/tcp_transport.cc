#include "net/tcp_transport.h"

#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace colscope::net {

using exchange::FetchResponse;

namespace {

/// One flight-recorder line per remote fetch outcome. Details carry
/// schema indices and status code names only (never endpoints or
/// durations) so deterministic runs dump identical bytes.
void RecordFetchFlight(int publisher, int consumer, int attempt,
                       const Status& status) {
  obs::FlightRecorder::Global().Record(
      "fetch", StrFormat("get_model publisher=%d consumer=%d attempt=%d %s",
                         publisher, consumer, attempt,
                         status.ok() ? "ok"
                                     : StatusCodeToString(status.code())));
}

}  // namespace

Status TcpTransport::Publish(int publisher, std::string payload) {
  local_publishers_[publisher] = true;
  return local_.Publish(publisher, std::move(payload));
}

FetchResponse TcpTransport::Fetch(int publisher, int consumer,
                                  int attempt) const {
  if (local_publishers_.count(publisher) > 0) {
    return local_.Fetch(publisher, consumer, attempt);
  }

  const auto owner = owners_.find(publisher);
  if (owner == owners_.end()) {
    // No process claims this schema: permanent, like an unpublished
    // in-memory model. Not an RPC, so no span or flight event.
    FetchResponse response;
    response.status = Status::NotFound(
        StrFormat("no worker owns schema %d", publisher));
    return response;
  }

  obs::ScopedSpan span(options_.tracer, "rpc.get_model");
  span.AddArg("publisher", publisher);
  span.AddArg("consumer", consumer);
  span.AddArg("attempt", attempt);
  const double start_ms = NetNowMs(options_);
  FetchResponse response =
      FetchRemote(owner->second, publisher, consumer, attempt, span.id());
  ObserveRpcLatency(options_, FrameType::kGetModel,
                    NetNowMs(options_) - start_ms);
  RecordFetchFlight(publisher, consumer, attempt, response.status);
  return response;
}

FetchResponse TcpTransport::FetchRemote(const Endpoint& owner, int publisher,
                                        int consumer, int attempt,
                                        uint64_t parent_span) const {
  FetchResponse response;
  Result<Socket> socket = Socket::Connect(owner, options_);
  if (!socket.ok()) {
    // Refused / unreachable / reset reads as a dropped payload; cancel
    // and run-deadline outcomes keep their codes so the retry loop stops
    // instead of burning attempts.
    response.status = socket.status();
    if (socket.status().code() == StatusCode::kUnavailable) {
      response.fault = FaultKind::kDrop;
    }
    return response;
  }

  GetModelRequest request;
  request.publisher = publisher;
  request.consumer = consumer;
  request.attempt = attempt;
  if (options_.tracer != nullptr) {
    request.trace.trace_id = options_.tracer->trace_id();
    request.trace.parent_span = parent_span;
  }
  Status sent = socket->SendFrame(FrameType::kGetModel,
                                  EncodeGetModel(request), options_);
  if (!sent.ok()) {
    response.status = std::move(sent);
    if (response.status.code() == StatusCode::kUnavailable) {
      response.fault = FaultKind::kDrop;
    }
    return response;
  }

  Result<Frame> frame = socket->RecvFrame(options_);
  if (!frame.ok()) {
    response.status = frame.status();
    switch (frame.status().code()) {
      case StatusCode::kUnavailable: {
        // Peer closed the connection. Nothing arrived at all -> the
        // response was dropped; some frame bytes arrived -> the frame
        // was truncated mid-wire.
        const std::string& message = frame.status().message();
        const bool nothing_arrived =
            message.find(StrFormat("connection closed after 0 of %zu",
                                   kFrameHeaderSize)) != std::string::npos;
        response.fault =
            nothing_arrived ? FaultKind::kDrop : FaultKind::kTruncate;
        break;
      }
      case StatusCode::kInvalidArgument:
        // Header parsed but the payload failed validation: a corrupt
        // frame if the checksum disagreed, a truncated one otherwise.
        response.fault =
            frame.status().message().find("checksum") != std::string::npos
                ? FaultKind::kCorrupt
                : FaultKind::kTruncate;
        break;
      case StatusCode::kDeadlineExceeded:
        // The connection was accepted and the request sent, but no reply
        // byte arrived inside the io timeout — the partition signature.
        // When the *run* deadline is the one that fired, keep
        // DeadlineExceeded so the retry loop stops; a per-frame stall
        // with run budget left is remapped to Unavailable, which the
        // retry loop treats as transient (and quorum can absorb).
        if (options_.deadline.infinite() || !options_.deadline.expired()) {
          response.fault = FaultKind::kPartition;
          response.status = Status::Unavailable(
              StrFormat("no reply from the schema %d owner: %s (partitioned "
                        "peer?)",
                        publisher, frame.status().message().c_str()));
        }
        break;
      default:
        break;  // Cancelled carries no fault kind.
    }
    return response;
  }

  if (frame->type == FrameType::kError) {
    response.status = DecodeErrorPayload(frame->payload);
    if (response.status.code() == StatusCode::kUnavailable) {
      response.fault = FaultKind::kDrop;
    }
    return response;
  }
  if (frame->type != FrameType::kModel) {
    response.status = Status::InvalidArgument(
        StrFormat("expected a model frame, got type %u",
                  static_cast<unsigned>(frame->type)));
    return response;
  }

  // An intact frame may still carry a server-injected truncated, corrupt,
  // or stale payload — deliberately not failed here, matching
  // InMemoryTransport: the receiver detects it by parsing.
  response.status = Status::Ok();
  response.payload = std::move(frame->payload);
  return response;
}

ConsumerPartial AssessConsumerOverTransport(
    const scoping::SignatureSet& signatures, int consumer,
    const AssignConfig& run, const exchange::ModelTransport& transport,
    std::vector<exchange::PeerFetchRecord>& fetches, const NetOptions& net) {
  std::vector<scoping::LocalModel> arrived;
  double spent_ms = 0.0;
  for (size_t p = 0; p < run.num_schemas; ++p) {
    const int publisher = static_cast<int>(p);
    if (publisher == consumer) continue;
    exchange::PeerFetch fetch = exchange::FetchPeerModel(
        transport, publisher, consumer, run.retry, run.faults.seed,
        net.metrics, net.cancel, net.deadline, spent_ms);
    if (fetch.model.has_value()) arrived.push_back(std::move(*fetch.model));
    fetches.push_back(std::move(fetch.record));
  }

  ConsumerPartial reduced;
  reduced.consumer = consumer;
  reduced.arrived = arrived.size();
  const size_t expected_peers = run.num_schemas > 0 ? run.num_schemas - 1 : 0;
  Result<std::vector<bool>> bits = scoping::AssessLinkabilityDegraded(
      signatures.signatures, signatures.RowsOfSchema(consumer), consumer,
      arrived, expected_peers, run.degraded);
  if (bits.ok()) {
    reduced.ok = true;
    reduced.bits = std::move(bits).value();
  } else {
    reduced.ok = false;
    reduced.error = bits.status().ToString();
  }
  return reduced;
}

}  // namespace colscope::net
