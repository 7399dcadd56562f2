#ifndef COLSCOPE_NET_TCP_TRANSPORT_H_
#define COLSCOPE_NET_TCP_TRANSPORT_H_

#include <map>
#include <string>
#include <utility>

#include "common/fault_injector.h"
#include "exchange/transport.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "scoping/signatures.h"

namespace colscope::net {

/// ModelTransport over real POSIX sockets: each Fetch dials the worker
/// that owns `publisher`, sends one kGetModel frame, and reads back one
/// kModel (payload = the hardened text serialization, byte-identical to
/// what InMemoryTransport would hand over) or kError frame.
///
/// Failure classification mirrors the in-memory fault taxonomy so the
/// retry loop and DegradationReport treat both transports identically:
///   - connect refused / reset / closed before a response  -> kDrop
///   - frame truncated mid-payload                         -> kTruncate
///   - checksum mismatch (payload corrupted in flight)     -> kCorrupt
/// Payload-level truncation/corruption/staleness injected by the serving
/// worker arrives as an intact frame and — exactly like the in-memory
/// path — does not fail here; the receiver detects it by parsing.
///
/// Publishers owned by this process (a worker fetching a sibling shard's
/// model) are served through an embedded InMemoryTransport carrying the
/// run's FaultInjector, so local fetches draw from the *same*
/// deterministic fault stream as the equivalent single-process run —
/// the property the byte-identical report guarantee rests on.
///
/// latency_ms of remote fetches is always 0: the distributed clock is
/// real, not simulated, and real waits are enforced by the socket
/// timeouts in NetOptions. Local fetches report the injector's simulated
/// latency exactly like InMemoryTransport.
class TcpTransport : public exchange::ModelTransport {
 public:
  TcpTransport(std::map<int, Endpoint> owners, FaultInjector injector,
               NetOptions options)
      : owners_(std::move(owners)),
        local_(std::move(injector)),
        options_(options) {}

  /// Registers a publisher owned by this process: subsequent fetches of
  /// `publisher` are served locally (its bytes never cross a socket).
  Status Publish(int publisher, std::string payload) override;

  /// Remote fetches additionally record an "rpc.get_model" span on the
  /// options' tracer (carrying the run trace context on the wire so the
  /// serving worker can parent under it), observe net.rpc_ms.get_model,
  /// and leave one flight-recorder "fetch" event per attempt.
  exchange::FetchResponse Fetch(int publisher, int consumer,
                                int attempt) const override;

 private:
  /// The socket round trip of one remote fetch; `parent_span` rides the
  /// kGetModel payload as this side's trace context.
  exchange::FetchResponse FetchRemote(const Endpoint& owner, int publisher,
                                      int consumer, int attempt,
                                      uint64_t parent_span) const;

  std::map<int, Endpoint> owners_;
  std::map<int, bool> local_publishers_;
  exchange::InMemoryTransport local_;
  NetOptions options_;
};

/// One consumer's side of the distributed exchange + assessment under the
/// run's assignment `run` (num_schemas, retry, fault seed as backoff
/// seed, degradation policy): fetches every foreign model (publishers
/// ascending, own schema skipped) over `transport` through
/// exchange::FetchPeerModel, as the in-memory exchange does (skipped once
/// `net`'s cancel token or deadline ends), appends one PeerFetchRecord
/// per publisher to `fetches`, and reduces whatever arrived to keep bits
/// — the combiner-style partial a worker ships in kPartial, and the
/// exact loop the coordinator re-executes locally for a lost worker's
/// consumers.
ConsumerPartial AssessConsumerOverTransport(
    const scoping::SignatureSet& signatures, int consumer,
    const AssignConfig& run, const exchange::ModelTransport& transport,
    std::vector<exchange::PeerFetchRecord>& fetches,
    const NetOptions& net = {});

}  // namespace colscope::net

#endif  // COLSCOPE_NET_TCP_TRANSPORT_H_
