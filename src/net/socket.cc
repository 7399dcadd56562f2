#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/parse.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace colscope::net {

namespace {

/// Cancellation poll granularity: the longest a blocked socket operation
/// can outlive a tripped token or an expired deadline.
constexpr int kPollTickMs = 10;

void Count(obs::MetricsRegistry* metrics, const char* name,
           uint64_t delta = 1) {
  if (metrics != nullptr) metrics->GetCounter(name).Increment(delta);
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(StrFormat("fcntl(O_NONBLOCK): %s",
                                      std::strerror(errno)));
  }
  return Status::Ok();
}

/// How long one poll() round may wait given the operation budget left and
/// the run deadline; <= 0 means the wait is already over.
double EffectiveWaitMs(double op_remaining_ms, const Deadline& deadline) {
  double wait = op_remaining_ms;
  if (!deadline.infinite()) wait = std::min(wait, deadline.remaining_ms());
  return wait;
}

/// Waits until `fd` is ready for `events`, in kPollTickMs slices so the
/// cancel token and deadline stay responsive. Ok when ready.
Status WaitReady(int fd, short events, double timeout_ms,
                 const NetOptions& options, const char* what) {
  double waited_ms = 0.0;
  for (;;) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return Status::Cancelled(StrFormat("%s cancelled", what));
    }
    if (!options.deadline.infinite() && options.deadline.expired()) {
      Count(options.metrics, "net.timeouts");
      return Status::DeadlineExceeded(
          StrFormat("%s aborted: run deadline exhausted", what));
    }
    const double remaining =
        EffectiveWaitMs(timeout_ms - waited_ms, options.deadline);
    if (remaining <= 0.0) {
      Count(options.metrics, "net.timeouts");
      return Status::DeadlineExceeded(
          StrFormat("%s timed out after %.0f ms", what, timeout_ms));
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int slice =
        static_cast<int>(std::min<double>(kPollTickMs, remaining)) + 1;
    const int ready = poll(&pfd, 1, slice);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(StrFormat("poll during %s: %s", what,
                                        std::strerror(errno)));
    }
    if (ready > 0) {
      // Readable/writable covers hangup and error too: the following
      // read/write reports the precise failure.
      return Status::Ok();
    }
    waited_ms += slice;
  }
}

Result<struct sockaddr_in> ResolveV4(const Endpoint& endpoint) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        "not an IPv4 address (distributed mode dials numeric addresses): " +
        endpoint.host);
  }
  return addr;
}

/// Bumps the per-frame-type byte counter (satellite of the aggregate
/// net.bytes_sent/net.bytes_received kept by SendAll/RecvExact).
void CountFrameBytes(obs::MetricsRegistry* metrics, const char* direction,
                     FrameType type, uint64_t bytes) {
  if (metrics == nullptr) return;
  metrics
      ->GetCounter(StrFormat("net.bytes_%s.%s", direction,
                             FrameTypeToString(type)))
      .Increment(bytes);
}

}  // namespace

double NetNowMs(const NetOptions& options) {
  if (options.clock != nullptr) return options.clock->NowUs() / 1000.0;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ObserveRpcLatency(const NetOptions& options, FrameType type,
                       double elapsed_ms) {
  if (options.metrics == nullptr) return;
  options.metrics
      ->GetHistogram(StrFormat("net.rpc_ms.%s", FrameTypeToString(type)),
                     obs::ExponentialBuckets(0.001, 8.0, 8))
      .Observe(elapsed_ms);
}

std::string Endpoint::ToString() const {
  return StrFormat("%s:%u", host.c_str(), port);
}

Result<Endpoint> ParseEndpoint(const std::string& spec) {
  const size_t colon = spec.find_last_of(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return Status::InvalidArgument("endpoint is not host:port: " + spec);
  }
  Endpoint endpoint;
  endpoint.host = spec.substr(0, colon);
  long long port = 0;
  if (!ParseInt(spec.substr(colon + 1), 0, 65535, port)) {
    return Status::InvalidArgument("malformed endpoint port: " + spec);
  }
  endpoint.port = static_cast<uint16_t>(port);
  return endpoint;
}

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> Socket::Connect(const Endpoint& endpoint,
                               const NetOptions& options) {
  Result<struct sockaddr_in> addr = ResolveV4(endpoint);
  if (!addr.ok()) return addr.status();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket(): %s", std::strerror(errno)));
  }
  Socket socket(fd);
  COLSCOPE_RETURN_IF_ERROR(SetNonBlocking(fd));
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  const std::string what =
      StrFormat("connect to %s", endpoint.ToString().c_str());
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&*addr),
                sizeof(*addr)) < 0) {
    // POSIX: a connect interrupted by a signal completes asynchronously,
    // exactly like EINPROGRESS — the POLLOUT wait below picks it up.
    if (errno != EINPROGRESS && errno != EINTR) {
      Count(options.metrics, "net.connect_failures");
      return Status::Unavailable(
          StrFormat("%s: %s", what.c_str(), std::strerror(errno)));
    }
    const Status ready = WaitReady(fd, POLLOUT, options.connect_timeout_ms,
                                   options, what.c_str());
    if (!ready.ok()) {
      Count(options.metrics, "net.connect_failures");
      // Keep cancellation and run-deadline statuses intact; per-connect
      // timeouts become Unavailable so retry loops treat them like any
      // other transient connect failure.
      if (ready.code() == StatusCode::kCancelled ||
          (ready.code() == StatusCode::kDeadlineExceeded &&
           !options.deadline.infinite() && options.deadline.expired())) {
        return ready;
      }
      return Status::Unavailable(ready.message());
    }
    int error = 0;
    socklen_t len = sizeof(error);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) < 0 ||
        error != 0) {
      Count(options.metrics, "net.connect_failures");
      return Status::Unavailable(StrFormat(
          "%s: %s", what.c_str(), std::strerror(error != 0 ? error : errno)));
    }
  }
  Count(options.metrics, "net.connects");
  return socket;
}

Status Socket::SendAll(std::string_view data, const NetOptions& options,
                       bool count_bytes) {
  if (!valid()) return Status::Internal("send on a closed socket");
  size_t sent = 0;
  while (sent < data.size()) {
    COLSCOPE_RETURN_IF_ERROR(WaitReady(fd_, POLLOUT, options.io_timeout_ms,
                                       options, "socket send"));
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;
      }
      return Status::Unavailable(
          StrFormat("send failed after %zu of %zu bytes: %s", sent,
                    data.size(), std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
    if (count_bytes) {
      Count(options.metrics, "net.bytes_sent", static_cast<uint64_t>(n));
    }
  }
  return Status::Ok();
}

Status Socket::RecvExact(std::string& out, size_t len,
                         const NetOptions& options) {
  if (!valid()) return Status::Internal("recv on a closed socket");
  size_t received = 0;
  char buffer[4096];
  while (received < len) {
    COLSCOPE_RETURN_IF_ERROR(WaitReady(fd_, POLLIN, options.io_timeout_ms,
                                       options, "socket recv"));
    const size_t want = std::min(len - received, sizeof(buffer));
    const ssize_t n = ::recv(fd_, buffer, want, 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;
      }
      return Status::Unavailable(
          StrFormat("recv failed after %zu of %zu bytes: %s", received, len,
                    std::strerror(errno)));
    }
    if (n == 0) {
      return Status::Unavailable(
          StrFormat("connection closed after %zu of %zu bytes", received,
                    len));
    }
    out.append(buffer, static_cast<size_t>(n));
    received += static_cast<size_t>(n);
    Count(options.metrics, "net.bytes_received", static_cast<uint64_t>(n));
  }
  return Status::Ok();
}

Status Socket::SendFrame(FrameType type, std::string_view payload,
                         const NetOptions& options) {
  const std::string encoded = EncodeFrame(type, payload);
  // Accounting first, wire second (see the header contract): once the
  // peer holds this frame it may harvest a telemetry snapshot, and that
  // snapshot must already include this frame's counts.
  Count(options.metrics, "net.frames_sent");
  Count(options.metrics, "net.bytes_sent",
        static_cast<uint64_t>(encoded.size()));
  CountFrameBytes(options.metrics, "sent", type, encoded.size());
  return SendAll(encoded, options, /*count_bytes=*/false);
}

Result<Frame> Socket::RecvFrame(const NetOptions& options) {
  std::string header;
  header.reserve(kFrameHeaderSize);
  COLSCOPE_RETURN_IF_ERROR(RecvExact(header, kFrameHeaderSize, options));
  Result<FrameHeader> parsed = ParseFrameHeader(header);
  if (!parsed.ok()) {
    Count(options.metrics, "net.frames_rejected");
    return parsed.status();
  }
  Frame frame;
  frame.type = parsed->type;
  frame.payload.reserve(parsed->payload_len);
  const Status body = RecvExact(frame.payload, parsed->payload_len, options);
  if (!body.ok()) {
    // A peer that dies mid-payload is wire truncation, not a protocol
    // violation — keep the transport-level status code.
    Count(options.metrics, "net.frames_rejected");
    return body;
  }
  if (FrameChecksum(frame.payload) != parsed->checksum) {
    Count(options.metrics, "net.frames_rejected");
    return Status::InvalidArgument("frame payload checksum mismatch");
  }
  Count(options.metrics, "net.frames_received");
  CountFrameBytes(options.metrics, "received", parsed->type,
                  kFrameHeaderSize + parsed->payload_len);
  return frame;
}

Listener::~Listener() { Close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Listener> Listener::Bind(const Endpoint& endpoint) {
  Result<struct sockaddr_in> addr = ResolveV4(endpoint);
  if (!addr.ok()) return addr.status();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket(): %s", std::strerror(errno)));
  }
  Listener listener;
  listener.fd_ = fd;
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  COLSCOPE_RETURN_IF_ERROR(SetNonBlocking(fd));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&*addr),
             sizeof(*addr)) < 0) {
    return Status::Unavailable(StrFormat("bind %s: %s",
                                         endpoint.ToString().c_str(),
                                         std::strerror(errno)));
  }
  if (::listen(fd, 64) < 0) {
    return Status::Internal(StrFormat("listen: %s", std::strerror(errno)));
  }
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) <
      0) {
    return Status::Internal(StrFormat("getsockname: %s",
                                      std::strerror(errno)));
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<Socket> Listener::Accept(double wait_ms, const NetOptions& options) {
  if (!valid()) return Status::Internal("accept on a closed listener");
  NetOptions accept_options = options;
  accept_options.io_timeout_ms = wait_ms;
  // An empty accept slice is the serve loop's normal idle tick, not an
  // I/O failure — keep it out of net.timeouts (whose value must not
  // depend on how fast peers happen to connect).
  accept_options.metrics = nullptr;
  const Status ready =
      WaitReady(fd_, POLLIN, wait_ms, accept_options, "accept");
  if (!ready.ok()) {
    if (ready.code() == StatusCode::kDeadlineExceeded) {
      return Status::NotFound("no connection within the accept wait");
    }
    return ready;
  }
  int fd = -1;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
    // A signal (the daemon's SIGTERM handler, a debugger attach) can
    // interrupt accept after poll said a connection is pending; the
    // connection is still there, so retry instead of surfacing a
    // spurious Unavailable. EAGAIN means the peer vanished between poll
    // and accept — an idle tick, not a failure.
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::NotFound("no connection within the accept wait");
    }
    return Status::Unavailable(StrFormat("accept: %s",
                                         std::strerror(errno)));
  }
  Socket socket(fd);
  const Status nonblocking = SetNonBlocking(fd);
  if (!nonblocking.ok()) return nonblocking;
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

}  // namespace colscope::net
