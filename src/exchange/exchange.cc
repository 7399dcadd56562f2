#include "exchange/exchange.h"

#include <algorithm>

#include "common/rng.h"
#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "scoping/model_io.h"

namespace colscope::exchange {

namespace {

/// Simulated-ms buckets for exchange.fetch_ms: base latency (~1ms)
/// through deadline-sized waits.
std::vector<double> FetchMsBuckets() {
  return obs::ExponentialBuckets(1.0, 4.0, 8);
}

/// Folds one finished fetch into the exchange.* instruments. All values
/// are simulated-clock derived, so identical runs produce identical
/// metrics bytes.
void EmitFetchMetrics(const FetchOutcome& outcome,
                      obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("exchange.fetches").Increment();
  metrics->GetCounter("exchange.attempts")
      .Increment(static_cast<uint64_t>(outcome.attempts));
  if (outcome.attempts > 1) {
    metrics->GetCounter("exchange.retries")
        .Increment(static_cast<uint64_t>(outcome.attempts - 1));
  }
  if (!outcome.status.ok()) {
    metrics->GetCounter("exchange.fetch_failures").Increment();
  }
  for (FaultKind fault : outcome.faults) {
    if (fault == FaultKind::kNone) continue;
    metrics
        ->GetCounter(std::string("exchange.faults.") +
                     FaultKindToString(fault))
        .Increment();
  }
  metrics->GetHistogram("exchange.fetch_ms", FetchMsBuckets())
      .Observe(outcome.elapsed_ms);
}

/// Deterministic backoff jitter factor in [1 - jitter, 1 + jitter] for
/// one (publisher, consumer, attempt) triple.
double JitterFactor(uint64_t seed, int publisher, int consumer, int attempt,
                    double jitter) {
  if (jitter <= 0.0) return 1.0;
  uint64_t state = seed;
  state += 0xd6e8feb86659fd93ULL * (static_cast<uint64_t>(publisher) + 1);
  SplitMix64(state);
  state += 0xa0761d6478bd642fULL * (static_cast<uint64_t>(consumer) + 1);
  SplitMix64(state);
  state += 0xe7037ed1a0b428dbULL * (static_cast<uint64_t>(attempt) + 1);
  Rng rng(SplitMix64(state));
  return 1.0 - jitter + 2.0 * jitter * rng.NextDouble();
}

}  // namespace

FetchOutcome FetchModelWithRetry(const ModelTransport& transport,
                                 int publisher, int consumer,
                                 const RetryPolicy& policy,
                                 uint64_t backoff_seed,
                                 obs::MetricsRegistry* metrics,
                                 const CancellationToken* cancel) {
  FetchOutcome outcome;
  Status last_error = Status::Unavailable("fetch never attempted");
  const int max_attempts = std::max(policy.max_attempts, 1);
  // Single exit point for the accounting so every return path hits the
  // exchange.* instruments exactly once.
  auto finish = [&]() -> FetchOutcome {
    EmitFetchMetrics(outcome, metrics);
    return std::move(outcome);
  };

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (cancel != nullptr && cancel->cancelled()) {
      outcome.status = Status::Cancelled(StrFormat(
          "fetch of schema %d model cancelled before attempt %d", publisher,
          attempt + 1));
      return finish();
    }
    const FetchResponse response =
        transport.Fetch(publisher, consumer, attempt);
    ++outcome.attempts;
    outcome.faults.push_back(response.fault);

    // The attempt consumes simulated time whether or not it succeeds; a
    // response that lands past the deadline is a timeout even if the
    // payload was intact (this is how kDelay faults kill fetches).
    if (outcome.elapsed_ms + response.latency_ms > policy.deadline_ms) {
      outcome.elapsed_ms = policy.deadline_ms;
      outcome.status = Status::DeadlineExceeded(StrFormat(
          "fetch of schema %d model exceeded %.0fms deadline on attempt %d",
          publisher, policy.deadline_ms, attempt + 1));
      return finish();
    }
    outcome.elapsed_ms += response.latency_ms;

    if (response.status.ok()) {
      Result<scoping::LocalModel> model =
          scoping::DeserializeLocalModel(response.payload);
      if (model.ok()) {
        outcome.model = std::move(model).value();
        outcome.status = Status::Ok();
        return finish();
      }
      // Truncated / corrupted payload: worth retrying, the next attempt
      // may arrive intact.
      last_error = model.status();
    } else {
      if (response.status.code() == StatusCode::kNotFound) {
        // Permanent: the peer never published. Retrying cannot help.
        outcome.status = response.status;
        return finish();
      }
      last_error = response.status;
    }

    if (attempt + 1 < max_attempts) {
      if (cancel != nullptr && cancel->cancelled()) {
        outcome.status = Status::Cancelled(StrFormat(
            "fetch of schema %d model cancelled after attempt %d", publisher,
            attempt + 1));
        return finish();
      }
      double backoff = policy.initial_backoff_ms;
      for (int i = 0; i < attempt; ++i) backoff *= policy.backoff_multiplier;
      backoff = std::min(backoff, policy.max_backoff_ms);
      backoff *= JitterFactor(backoff_seed, publisher, consumer, attempt,
                              policy.jitter);
      if (outcome.elapsed_ms + backoff > policy.deadline_ms) {
        outcome.elapsed_ms = policy.deadline_ms;
        outcome.status = Status::DeadlineExceeded(StrFormat(
            "backoff after attempt %d would exceed the %.0fms deadline",
            attempt + 1, policy.deadline_ms));
        return finish();
      }
      outcome.elapsed_ms += backoff;
      // Indices, attempt ordinal, and fault kind only — no times or
      // endpoints — so repeat runs dump identical flight bytes.
      obs::FlightRecorder::Global().Record(
          "retry",
          StrFormat("publisher=%d consumer=%d attempt=%d fault=%s",
                    publisher, consumer, attempt + 1,
                    FaultKindToString(outcome.faults.back())));
      COLSCOPE_LOG(Debug) << "exchange retry: consumer=" << consumer
                          << " publisher=" << publisher << " attempt="
                          << attempt + 1 << "/" << max_attempts
                          << " backoff_ms=" << backoff << " fault="
                          << FaultKindToString(response.fault) << " error=\""
                          << last_error.ToString() << "\"";
    }
  }
  outcome.status = last_error;
  COLSCOPE_LOG(Debug) << "exchange fetch failed: consumer=" << consumer
                      << " publisher=" << publisher << " attempts="
                      << outcome.attempts << " error=\""
                      << last_error.ToString() << "\"";
  return finish();
}

PeerFetch FetchPeerModel(const ModelTransport& transport, int publisher,
                         int consumer, const RetryPolicy& policy,
                         uint64_t backoff_seed, obs::MetricsRegistry* metrics,
                         const CancellationToken* cancel,
                         Deadline run_deadline, double& spent_ms) {
  PeerFetch fetch;
  PeerFetchRecord& record = fetch.record;
  record.publisher = publisher;
  record.consumer = consumer;

  if (cancel != nullptr && cancel->cancelled()) {
    fetch.aborted = "cancelled";
    record.error =
        Status::Cancelled("run cancelled before this fetch").ToString();
  } else if (!run_deadline.infinite() &&
             run_deadline.remaining_ms() - spent_ms <= 0.0) {
    fetch.aborted = "run_deadline_exceeded";
    record.error =
        Status::DeadlineExceeded("run deadline exhausted before this fetch")
            .ToString();
  }
  if (!fetch.aborted.empty()) {
    record.skipped = true;
    if (metrics != nullptr) {
      metrics->GetCounter("exchange.fetches_skipped").Increment();
    }
    return fetch;
  }

  // Derive this fetch's deadline from whatever run budget is left.
  RetryPolicy effective = policy;
  if (!run_deadline.infinite()) {
    effective.deadline_ms =
        std::min(policy.deadline_ms, run_deadline.remaining_ms() - spent_ms);
  }
  FetchOutcome outcome =
      FetchModelWithRetry(transport, publisher, consumer, effective,
                          backoff_seed, metrics, cancel);
  spent_ms += outcome.elapsed_ms;
  record.attempts = outcome.attempts;
  record.elapsed_ms = outcome.elapsed_ms;
  record.ok = outcome.status.ok();
  record.faults = std::move(outcome.faults);
  if (record.ok) {
    fetch.model = std::move(outcome.model);
  } else {
    record.error = outcome.status.ToString();
  }
  return fetch;
}

Result<ExchangeResult> ExchangeLocalModels(
    const std::vector<scoping::LocalModel>& models, ModelTransport& transport,
    const RetryPolicy& policy, uint64_t backoff_seed,
    obs::MetricsRegistry* metrics, const CancellationToken* cancel,
    Deadline run_deadline) {
  if (metrics != nullptr) {
    // Pre-register the headline counters so a healthy run still exports
    // them (as zeroes) instead of omitting the keys.
    metrics->GetCounter("exchange.fetches");
    metrics->GetCounter("exchange.retries");
    metrics->GetCounter("exchange.fetch_failures");
  }
  for (const scoping::LocalModel& model : models) {
    COLSCOPE_RETURN_IF_ERROR(
        transport.Publish(model.schema_index(), SerializeLocalModel(model)));
  }

  ExchangeResult result;
  result.arrived.resize(models.size());
  // Simulated transport time already spent this exchange, charged against
  // the run deadline: the transport clock is simulated, so the run clock
  // does not see it advance on its own.
  double sim_elapsed_ms = 0.0;
  for (size_t c = 0; c < models.size(); ++c) {
    for (size_t p = 0; p < models.size(); ++p) {
      if (p == c) continue;
      PeerFetch fetch = FetchPeerModel(
          transport, models[p].schema_index(), models[c].schema_index(),
          policy, backoff_seed, metrics, cancel, run_deadline,
          sim_elapsed_ms);
      if (!fetch.aborted.empty()) result.aborted = std::move(fetch.aborted);
      if (fetch.model.has_value()) {
        result.arrived[c].push_back(std::move(*fetch.model));
      }
      result.fetches.push_back(std::move(fetch.record));
    }
  }
  return result;
}

DegradationReport BuildDegradationReport(const ExchangeResult& result,
                                         std::string policy_name,
                                         size_t num_schemas) {
  std::vector<size_t> arrived_per_schema;
  arrived_per_schema.reserve(result.arrived.size());
  for (const auto& models : result.arrived) {
    arrived_per_schema.push_back(models.size());
  }
  return BuildDegradationReport(result.fetches, arrived_per_schema,
                                std::move(policy_name), num_schemas,
                                result.aborted);
}

DegradationReport BuildDegradationReport(
    const std::vector<PeerFetchRecord>& fetches,
    const std::vector<size_t>& arrived_per_schema, std::string policy_name,
    size_t num_schemas, std::string aborted) {
  DegradationReport report;
  report.policy = std::move(policy_name);
  report.num_schemas = num_schemas;
  report.total_fetches = fetches.size();
  report.aborted = std::move(aborted);
  for (const PeerFetchRecord& fetch : fetches) {
    if (fetch.skipped) ++report.skipped_fetches;
    report.total_attempts += static_cast<size_t>(fetch.attempts);
    if (fetch.attempts > 1) {
      report.total_retries += static_cast<size_t>(fetch.attempts - 1);
    }
    report.simulated_ms += fetch.elapsed_ms;
    for (FaultKind fault : fetch.faults) {
      report.fault_counts[static_cast<size_t>(fault)] += 1;
    }
    if (!fetch.ok) {
      ++report.failed_fetches;
      report.peers_lost.emplace_back(fetch.consumer, fetch.publisher);
    }
  }
  report.arrived_per_schema = arrived_per_schema;
  return report;
}

std::string FormatDegradationReport(const DegradationReport& report) {
  std::string out = StrFormat(
      "policy=%s schemas=%zu fetches=%zu failed=%zu attempts=%zu "
      "retries=%zu simulated_ms=%.3f faults[drop=%zu delay=%zu "
      "truncate=%zu corrupt=%zu stale=%zu]",
      report.policy.c_str(), report.num_schemas, report.total_fetches,
      report.failed_fetches, report.total_attempts, report.total_retries,
      report.simulated_ms,
      report.fault_counts[static_cast<size_t>(FaultKind::kDrop)],
      report.fault_counts[static_cast<size_t>(FaultKind::kDelay)],
      report.fault_counts[static_cast<size_t>(FaultKind::kTruncate)],
      report.fault_counts[static_cast<size_t>(FaultKind::kCorrupt)],
      report.fault_counts[static_cast<size_t>(FaultKind::kStale)]);
  if (report.skipped_fetches > 0) {
    out += StrFormat(" skipped=%zu", report.skipped_fetches);
  }
  if (!report.aborted.empty()) {
    out += StrFormat(" aborted=%s", report.aborted.c_str());
  }
  if (!report.peers_lost.empty()) {
    out += " lost=";
    for (size_t i = 0; i < report.peers_lost.size(); ++i) {
      if (i > 0) out += ',';
      out += StrFormat("%d<-%d", report.peers_lost[i].first,
                       report.peers_lost[i].second);
    }
  }
  return out;
}

}  // namespace colscope::exchange
