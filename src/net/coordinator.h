#ifndef COLSCOPE_NET_COORDINATOR_H_
#define COLSCOPE_NET_COORDINATOR_H_

#include <map>
#include <optional>
#include <vector>

#include "common/status.h"
#include "exchange/exchange.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "net/telemetry.h"
#include "scoping/collaborative.h"
#include "scoping/signatures.h"

namespace colscope::net {

/// What a distributed run learned about its workers, beyond the keep
/// mask and the degradation report.
struct WorkerReport {
  /// Worker list indices that failed assignment or died before
  /// delivering their partial result.
  std::vector<size_t> lost_workers;
  /// Telemetry harvested (kStatsRequest -> kStats) from each worker
  /// after assessment, indexed like the worker list. A dead or
  /// unresponsive worker is a hole (nullopt), never an error: losing a
  /// worker's telemetry must not fail a run that already survived
  /// losing the worker itself.
  std::vector<std::optional<WorkerTelemetry>> telemetry;
};

/// Outcome of one distributed scoping run.
struct DistributedScopeResult {
  /// Keep-mask in signature row order, merged from the workers' partial
  /// reductions (and local re-executions of lost shards).
  std::vector<bool> keep;
  exchange::DegradationReport degradation;
  /// Schema index -> owning worker, echoed into the JSON report.
  std::map<int, Endpoint> owners;
  WorkerReport workers;
};

/// Phase II + III across worker processes: shards the schemas
/// round-robin over `workers` (schema i belongs to workers[i %
/// workers.size()]), ships each worker its assignment (kAssign), then
/// asks each for its combiner-style partial reduction (kAssess ->
/// kPartial) — per-consumer keep bits instead of the |rows| x |models|
/// verdict matrix — and merges them with scoping::MergeConsumerVerdicts.
/// `run` holds the settings every worker receives (v, degraded, retry,
/// faults); its num_schemas, shard, owners and trace are filled in here.
///
/// Workers that refuse assignment or die before answering are *lost*:
/// their consumers' assessments are re-executed at the coordinator
/// against the surviving workers' published models, so a lost peer
/// degrades the run exactly like an in-memory exchange whose fetches
/// from that peer all drop — the equivalence the quorum ctest pins,
/// byte for byte, against the `drop-from` fault profile.
///
/// Fails (like AssessAllSparse) when any consumer's degradation policy
/// refuses its arrivals — quorum unmet surfaces as Unavailable.
///
/// With a tracer in `net` every RPC round records an
/// rpc.assign/rpc.assess/rpc.stats span whose id rides the request
/// payload as the worker's parent span, client-side round trips feed
/// the net.rpc_ms.<type> histograms, and each round leaves one
/// flight-recorder event per worker (indices and status code names
/// only — reproducible bytes).
Result<DistributedScopeResult> DistributedScope(
    const scoping::SignatureSet& signatures, size_t num_schemas,
    const std::vector<Endpoint>& workers, AssignConfig run,
    const NetOptions& net);

/// Best-effort kShutdown to every worker; errors are ignored (a dead
/// worker cannot be shut down twice).
void ShutdownWorkers(const std::vector<Endpoint>& workers,
                     const NetOptions& net);

}  // namespace colscope::net

#endif  // COLSCOPE_NET_COORDINATOR_H_
