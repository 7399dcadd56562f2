#include "server/client.h"

#include <utility>

#include "common/strings.h"
#include "net/frame.h"
#include "net/rpc.h"
#include "net/telemetry.h"

namespace colscope::server {

namespace {

/// The reply payload of one net::Call (the daemon serves one request per
/// connection, like the worker protocol): a kError reply's carried
/// status, or InvalidArgument for a reply of any type but `want`.
Result<std::string> CallFor(const net::Endpoint& server, net::FrameType type,
                            const std::string& payload, net::FrameType want,
                            const net::NetOptions& options) {
  Result<net::Frame> reply = net::Call(server, type, payload, options);
  if (!reply.ok()) return reply.status();
  if (reply->type != want) {
    return Status::InvalidArgument(StrFormat(
        "expected a %s reply, got frame type %u", net::FrameTypeToString(want),
        static_cast<unsigned>(reply->type)));
  }
  return std::move(reply->payload);
}

}  // namespace

Result<std::string> RequestScope(const net::Endpoint& server,
                                 const ScopeRequest& request,
                                 const net::NetOptions& options) {
  return CallFor(server, net::FrameType::kScopeRequest,
                 EncodeScopeRequest(request), net::FrameType::kScopeResponse,
                 options);
}

Result<HealthInfo> RequestHealth(const net::Endpoint& server,
                                 const net::NetOptions& options) {
  Result<std::string> reply =
      CallFor(server, net::FrameType::kStatsRequest, "",
              net::FrameType::kStats, options);
  if (!reply.ok()) return reply.status();
  Result<net::WorkerTelemetry> stats = net::DecodeStats(*reply);
  if (!stats.ok()) return stats.status();
  return HealthFromMetrics(stats->metrics);
}

Status RequestShutdown(const net::Endpoint& server,
                       const net::NetOptions& options) {
  return CallFor(server, net::FrameType::kShutdown, "",
                 net::FrameType::kShutdownAck, options)
      .status();
}

}  // namespace colscope::server
