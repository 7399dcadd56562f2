#ifndef COLSCOPE_SERVER_CLIENT_H_
#define COLSCOPE_SERVER_CLIENT_H_

#include <string>

#include "common/status.h"
#include "net/socket.h"
#include "server/protocol.h"

namespace colscope::server {

/// Sends one scope request to a colscoped daemon and returns the JSON
/// report payload — the exact bytes a cold `colscope match --json` run
/// would print (without the trailing newline). Server-side rejections
/// (kOverloaded shed, kDeadlineExceeded, parse errors) come back as
/// their typed Status.
Result<std::string> RequestScope(const net::Endpoint& server,
                                 const ScopeRequest& request,
                                 const net::NetOptions& options);

/// Probes a daemon's lifecycle state and request accounting: one
/// kStatsRequest round trip, read through HealthFromMetrics.
Result<HealthInfo> RequestHealth(const net::Endpoint& server,
                                 const net::NetOptions& options);

/// Asks a daemon to drain and exit (the programmatic SIGTERM). Returns
/// once the daemon acknowledged; the drain itself completes
/// asynchronously.
Status RequestShutdown(const net::Endpoint& server,
                       const net::NetOptions& options);

}  // namespace colscope::server

#endif  // COLSCOPE_SERVER_CLIENT_H_
