#ifndef COLSCOPE_EXCHANGE_EXCHANGE_H_
#define COLSCOPE_EXCHANGE_EXCHANGE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "common/status.h"
#include "exchange/transport.h"
#include "scoping/collaborative.h"

namespace colscope::obs {
class MetricsRegistry;
}  // namespace colscope::obs

namespace colscope::exchange {

/// Retry discipline of one model fetch: exponential backoff with
/// deterministic jitter and a per-fetch deadline on the simulated
/// transport clock. A fetch fails when the deadline is exhausted or
/// `max_attempts` attempts have all failed, whichever comes first.
struct RetryPolicy {
  int max_attempts = 4;
  double initial_backoff_ms = 10.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 1000.0;
  /// Backoff jitter as a fraction: each wait is scaled by a
  /// deterministic factor in [1 - jitter, 1 + jitter].
  double jitter = 0.2;
  /// Total simulated time budget of one fetch (attempts + backoffs).
  double deadline_ms = 5000.0;
};

/// Everything one fetch produced: the deserialized model when it
/// succeeded, plus attempt/latency/fault accounting either way.
struct FetchOutcome {
  Status status;
  std::optional<scoping::LocalModel> model;
  int attempts = 0;
  /// Simulated elapsed time: attempt latencies plus backoff waits.
  double elapsed_ms = 0.0;
  /// Fault observed on each attempt (kNone for healthy attempts).
  std::vector<FaultKind> faults;
};

/// Fetches `publisher`'s model on behalf of `consumer`, retrying on
/// drops, timeouts, and payloads that fail to deserialize (truncation /
/// corruption). `backoff_seed` drives the jitter deterministically.
/// When `metrics` is non-null the fetch emits exchange.* counters
/// (fetches, attempts, retries, failures, per-fault counts) plus the
/// exchange.fetch_ms histogram of simulated elapsed time; each retry is
/// additionally logged at Debug level (attempt #, backoff delay, fault).
/// A non-null `cancel` token aborts the retry loop cooperatively: it is
/// checked before each attempt and before each backoff wait, and a
/// tripped token ends the fetch with a Cancelled status instead of
/// burning the remaining attempts.
FetchOutcome FetchModelWithRetry(const ModelTransport& transport,
                                 int publisher, int consumer,
                                 const RetryPolicy& policy,
                                 uint64_t backoff_seed,
                                 obs::MetricsRegistry* metrics = nullptr,
                                 const CancellationToken* cancel = nullptr);

/// Accounting record of one (consumer <- publisher) fetch.
struct PeerFetchRecord {
  int publisher = 0;
  int consumer = 0;
  int attempts = 0;
  double elapsed_ms = 0.0;
  bool ok = false;
  /// True when the fetch was never issued because the run was cancelled
  /// or its deadline budget ran out before this pair's turn.
  bool skipped = false;
  std::string error;  ///< Final status string when !ok.
  std::vector<FaultKind> faults;
};

/// One recorded fetch; `aborted` names why it was skipped ("cancelled",
/// "run_deadline_exceeded") and is empty when it was issued.
struct PeerFetch {
  PeerFetchRecord record;
  std::optional<scoping::LocalModel> model;
  std::string aborted;
};

/// The (consumer <- publisher) step of every exchange, in memory or over
/// TCP: skipped when `cancel` tripped or `run_deadline`, less the
/// `spent_ms` of simulated time already charged to it, is exhausted;
/// otherwise FetchModelWithRetry within that budget, adding its simulated
/// time to `spent_ms`.
PeerFetch FetchPeerModel(const ModelTransport& transport, int publisher,
                         int consumer, const RetryPolicy& policy,
                         uint64_t backoff_seed, obs::MetricsRegistry* metrics,
                         const CancellationToken* cancel,
                         Deadline run_deadline, double& spent_ms);

/// Result of a full all-pairs model exchange. `arrived[k]` holds the
/// foreign models consumer schema k managed to obtain — possibly fewer
/// than num_schemas - 1 under faults; degraded-mode scoping
/// (scoping::AssessAllSparse) decides what to do with the gaps.
struct ExchangeResult {
  std::vector<std::vector<scoping::LocalModel>> arrived;
  std::vector<PeerFetchRecord> fetches;  ///< Deterministic order.
  /// Why the exchange stopped early: "" (ran to completion),
  /// "cancelled", or "run_deadline_exceeded".
  std::string aborted;
};

/// Phase III over a faulty medium: publishes every model in `models` to
/// `transport`, then each schema fetches every other schema's model with
/// retry/backoff. Fetch failures are recorded, never fatal — the caller
/// applies its degradation policy to the (possibly sparse) arrivals.
///
/// `run_deadline` is the enclosing run's time budget: each fetch's
/// effective deadline is the smaller of the policy's per-fetch deadline
/// and the run budget remaining after the simulated transport time
/// already spent, so a run-level deadline bounds the whole phase, not
/// just one fetch. A non-null `cancel` token stops issuing new fetches
/// (and aborts in-flight retry loops) once tripped. Either way the
/// un-issued fetches are recorded as skipped, never fatal.
Result<ExchangeResult> ExchangeLocalModels(
    const std::vector<scoping::LocalModel>& models, ModelTransport& transport,
    const RetryPolicy& policy, uint64_t backoff_seed = 0,
    obs::MetricsRegistry* metrics = nullptr,
    const CancellationToken* cancel = nullptr,
    Deadline run_deadline = Deadline());

/// The full effective exchange + transport configuration of one run —
/// fault-injector seed included — echoed into the JSON report so any
/// degraded run can be reproduced from the report alone: the profile,
/// retry discipline, policy, and (for distributed runs) the schema ->
/// worker ownership map are everything the fault stream is a function
/// of.
struct ExchangeConfigEcho {
  /// "in_memory" or "tcp".
  std::string transport;
  FaultProfile faults;
  RetryPolicy retry;
  std::string policy;
  size_t quorum = 0;
  /// Distributed runs: schema index -> owning worker "host:port", in
  /// schema order. Empty for in-memory runs.
  std::vector<std::pair<int, std::string>> owners;
};

/// Observability record of one degraded run: what the exchange lost,
/// how hard it retried, which faults it survived, and which policy
/// decided the outcome. Threaded into PipelineRun and the JSON report.
struct DegradationReport {
  std::string policy;
  size_t num_schemas = 0;
  size_t total_fetches = 0;
  size_t failed_fetches = 0;
  /// Fetches never issued because the run was cancelled or out of
  /// deadline budget (subset of failed_fetches).
  size_t skipped_fetches = 0;
  size_t total_attempts = 0;
  size_t total_retries = 0;
  /// Early-termination cause copied from ExchangeResult::aborted; empty
  /// when the exchange ran to completion.
  std::string aborted;
  /// Total simulated transport time across all fetches.
  double simulated_ms = 0.0;
  /// Faults observed across all attempts, indexed by FaultKind.
  std::array<size_t, kNumFaultKinds> fault_counts{};
  /// (consumer, publisher) pairs whose fetch ultimately failed.
  std::vector<std::pair<int, int>> peers_lost;
  /// Foreign models that arrived per consumer schema.
  std::vector<size_t> arrived_per_schema;
};

/// Summarizes an exchange under `policy_name` into a report.
DegradationReport BuildDegradationReport(const ExchangeResult& result,
                                         std::string policy_name,
                                         size_t num_schemas);

/// Same summary over a bare record set — the form a distributed
/// coordinator holds after merging workers' partial reductions, where no
/// ExchangeResult (with its materialized model lists) ever exists.
DegradationReport BuildDegradationReport(
    const std::vector<PeerFetchRecord>& fetches,
    const std::vector<size_t>& arrived_per_schema, std::string policy_name,
    size_t num_schemas, std::string aborted = "");

/// One-line human-readable summary ("policy=keep_all fetches=12 ...").
/// Byte-stable for identical reports.
std::string FormatDegradationReport(const DegradationReport& report);

}  // namespace colscope::exchange

#endif  // COLSCOPE_EXCHANGE_EXCHANGE_H_
