#include "pipeline/pipeline.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <optional>
#include <utility>

#include "cache/artifact_cache.h"
#include "cache/pipeline_cache.h"
#include "common/check.h"
#include "common/checksum.h"
#include "common/strings.h"
#include "datasets/csv_loader.h"
#include "exchange/transport.h"
#include "obs/log.h"
#include "schema/ddl_parser.h"
#include "scoping/collaborative.h"
#include "scoping/scoping.h"
#include "scoping/streamline.h"

namespace colscope::pipeline {

namespace {

/// RAII phase stopwatch: records the enclosing scope's duration into a
/// "pipeline.<phase>_ms" histogram. Measures on the tracer's clock when
/// one is present — a SimulatedTraceClock then makes the recorded
/// values (and therefore the metrics file) byte-deterministic — and on
/// std::chrono::steady_clock otherwise. Inert when `metrics` is null.
class PhaseTimer {
 public:
  PhaseTimer(obs::MetricsRegistry* metrics, obs::Tracer* tracer,
             const char* phase)
      : metrics_(metrics), tracer_(tracer), phase_(phase) {
    if (metrics_ == nullptr) return;
    start_us_ = NowUs();
  }

  ~PhaseTimer() {
    if (metrics_ == nullptr) return;
    metrics_
        ->GetHistogram(StrFormat("pipeline.%s_ms", phase_),
                       obs::ExponentialBuckets(0.1, 4.0, 10))
        .Observe((NowUs() - start_us_) / 1000.0);
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double NowUs() {
    if (tracer_ != nullptr) return tracer_->clock().NowUs();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
  const char* phase_;
  double start_us_ = 0.0;
};

/// Moves a phase's artifact into its PipelineRun slot, or returns the
/// phase's error.
template <typename T>
Status MoveInto(Result<T> result, T& slot) {
  if (!result.ok()) return result.status();
  slot = std::move(result).value();
  return Status::Ok();
}

/// Canonical rendering of every option that changes a phase artifact;
/// its fingerprint keys the artifact cache's keep-mask slices (see
/// cache/pipeline_cache.h). Observability hooks, thread counts, and the
/// cache path are deliberately excluded: they change what gets recorded
/// or reused, never what gets computed.
std::string SemanticOptionsString(const PipelineOptions& options) {
  std::string opts = StrFormat("scoper=%d ev=%.17g keep=%.17g exchange=%d",
                               static_cast<int>(options.scoper),
                               options.explained_variance,
                               options.keep_portion,
                               options.exchange.enabled ? 1 : 0);
  if (options.exchange.enabled) {
    const FaultProfile& f = options.exchange.faults;
    const exchange::RetryPolicy& r = options.exchange.retry;
    opts += StrFormat(
        " seed=%llu drop=%.17g corrupt=%.17g truncate=%.17g delay=%.17g"
        " stale=%.17g base_lat=%.17g delay_lat=%.17g"
        " attempts=%d backoff=%.17g mult=%.17g max_backoff=%.17g"
        " jitter=%.17g deadline=%.17g policy=%d quorum=%zu",
        static_cast<unsigned long long>(f.seed), f.drop_probability,
        f.corrupt_probability, f.truncate_probability, f.delay_probability,
        f.stale_probability, f.base_latency_ms, f.delay_latency_ms,
        r.max_attempts, r.initial_backoff_ms, r.backoff_multiplier,
        r.max_backoff_ms, r.jitter, r.deadline_ms,
        static_cast<int>(options.exchange.degraded.policy),
        options.exchange.degraded.quorum);
  }
  return opts;
}

/// The report echo of the run's exchange settings over `transport`.
exchange::ExchangeConfigEcho EchoExchangeConfig(const PipelineOptions& options,
                                                const char* transport) {
  exchange::ExchangeConfigEcho echo;
  echo.transport = transport;
  echo.faults = options.exchange.faults;
  echo.retry = options.exchange.retry;
  echo.policy =
      scoping::DegradedPolicyToString(options.exchange.degraded.policy);
  echo.quorum = options.exchange.degraded.quorum;
  return echo;
}

/// Phase III over the simulated faulty transport: publish every fitted
/// model, fetch peers' models with retry under the run's deadline and
/// cancellation token, then apply the degradation policy to whatever
/// arrived. Fills `run.degradation` even when the policy ultimately
/// rejects the run's arrivals or the exchange aborted early.
Result<std::vector<bool>> ScopeViaExchange(
    const scoping::SignatureSet& sigs, size_t num_schemas,
    const std::vector<scoping::LocalModel>& models,
    const PipelineOptions& options, const CancellationToken* cancel,
    Deadline run_deadline, PipelineRun& run) {
  exchange::InMemoryTransport transport{FaultInjector(options.exchange.faults)};
  Result<exchange::ExchangeResult> exchanged = [&] {
    obs::ScopedSpan span(options.tracer, "pipeline.exchange");
    span.AddArg("models", static_cast<long long>(models.size()));
    return exchange::ExchangeLocalModels(models, transport,
                                         options.exchange.retry,
                                         options.exchange.faults.seed,
                                         options.metrics, cancel,
                                         run_deadline);
  }();
  if (!exchanged.ok()) return exchanged.status();

  run.degradation = exchange::BuildDegradationReport(
      *exchanged,
      scoping::DegradedPolicyToString(options.exchange.degraded.policy),
      num_schemas);
  run.exchange_config = EchoExchangeConfig(options, "in_memory");
  obs::ScopedSpan span(options.tracer, "pipeline.assess");
  return scoping::AssessAllSparse(sigs, num_schemas, exchanged->arrived,
                                  options.exchange.degraded,
                                  options.metrics);
}

/// Phases II + III on the exchange workers over TCP, under the run's
/// deadline, cancel token and telemetry hooks.
Result<std::vector<bool>> ScopeViaWorkers(const scoping::SignatureSet& sigs,
                                          size_t num_schemas,
                                          const PipelineOptions& options,
                                          Deadline run_deadline,
                                          PipelineRun& run) {
  net::AssignConfig settings;
  settings.v = options.explained_variance;
  settings.degraded = options.exchange.degraded;
  settings.retry = options.exchange.retry;
  settings.faults = options.exchange.faults;
  net::NetOptions net;
  net.deadline = run_deadline;
  net.cancel = options.cancel;
  net.metrics = options.metrics;
  net.tracer = options.tracer;
  if (options.tracer != nullptr) net.clock = &options.tracer->clock();
  Result<net::DistributedScopeResult> scoped = net::DistributedScope(
      sigs, num_schemas, options.exchange.workers, std::move(settings), net);
  if (!scoped.ok()) return scoped.status();

  run.degradation = std::move(scoped->degradation);
  run.exchange_config = EchoExchangeConfig(options, "tcp");
  for (const auto& [schema_index, endpoint] : scoped->owners) {
    run.exchange_config->owners.emplace_back(schema_index,
                                             endpoint.ToString());
  }
  run.workers = std::move(scoped->workers);
  return std::move(scoped->keep);
}

}  // namespace

bool IsPipelinePhase(std::string_view name) {
  return std::find(kPipelinePhases.begin(), kPipelinePhases.end(), name) !=
         kPipelinePhases.end();
}

Result<ScoperKind> ParseScoperKind(std::string_view name) {
  if (name == "pca") return ScoperKind::kCollaborativePca;
  if (name == "neural") return ScoperKind::kCollaborativeNeural;
  if (name == "global") return ScoperKind::kGlobalScoping;
  if (name == "none") return ScoperKind::kNone;
  return Status::InvalidArgument("unknown scoper: " + std::string(name));
}

Result<schema::SchemaSet> BuildSchemaSet(
    const std::vector<SchemaSource>& sources) {
  std::vector<schema::Schema> schemas;
  for (const SchemaSource& source : sources) {
    Result<schema::Schema> parsed =
        Status::InvalidArgument("unknown schema kind: " + source.kind);
    if (source.kind == "ddl") {
      parsed = schema::ParseDdl(source.text, source.name);
    } else if (source.kind == "csv") {
      datasets::CsvLoadOptions options;
      options.table_name = source.name;
      parsed = datasets::LoadCsvSchema(source.text, source.name, options);
    }
    if (!parsed.ok()) {
      return Status::InvalidArgument(source.name + ": " +
                                     parsed.status().message());
    }
    schemas.push_back(std::move(parsed).value());
  }
  return schema::SchemaSet(std::move(schemas));
}

size_t PipelineRun::num_kept() const {
  size_t n = 0;
  for (bool k : keep) n += k;
  return n;
}

Pipeline::Pipeline(const embed::SentenceEncoder* encoder,
                   PipelineOptions options)
    : encoder_(encoder), options_(options) {
  COLSCOPE_CHECK(encoder_ != nullptr);
}

Result<PipelineRun> Pipeline::Run(const schema::SchemaSet& set,
                                  const matching::Matcher& matcher,
                                  const datasets::GroundTruth* truth) const {
  if (set.num_schemas() < 2) {
    return Status::InvalidArgument("matching needs at least two schemas");
  }
  if (options_.exchange.enabled &&
      options_.scoper != ScoperKind::kCollaborativePca) {
    return Status::InvalidArgument(
        "model-exchange simulation requires the collaborative pca scoper");
  }
  const bool distributed = !options_.exchange.workers.empty();
  if (distributed && !options_.exchange.enabled) {
    return Status::InvalidArgument(
        "exchange workers require the model exchange to be enabled");
  }
  if (options_.scoper == ScoperKind::kGlobalScoping) {
    if (options_.detector == nullptr) {
      return Status::InvalidArgument(
          "global scoping requires PipelineOptions::detector");
    }
    if (options_.keep_portion < 0.0 || options_.keep_portion > 1.0) {
      return Status::InvalidArgument("keep portion must be in [0, 1]");
    }
  }
  if (!options_.crash_after_phase.empty() &&
      !IsPipelinePhase(options_.crash_after_phase)) {
    return Status::InvalidArgument("unknown crash_after_phase: " +
                                   options_.crash_after_phase);
  }
  PipelineRun run;
  obs::ScopedSpan run_span(options_.tracer, "pipeline.run");
  run_span.AddArg("schemas", static_cast<long long>(set.num_schemas()));

  // Worker pool for the parallel phases: borrowed when the caller shared
  // one, private otherwise — and absent entirely in the default serial
  // configuration, which pays no thread start-up at all.
  std::optional<ThreadPool> private_pool;
  ThreadPool* pool = options_.pool;
  if (pool == nullptr && options_.num_threads != 1) {
    private_pool.emplace(options_.num_threads);
    pool = &*private_pool;
  }

  // Deadline and cancellation plumbing. The fallback clock lives on this
  // stack frame, so the derived Deadline (which borrows it) must not
  // outlive Run — it doesn't; copies only flow down the call stack.
  SystemRunClock fallback_clock;
  Deadline deadline;
  if (options_.deadline_ms > 0.0) {
    RunClock* clock =
        options_.clock != nullptr ? options_.clock : &fallback_clock;
    deadline = Deadline::After(clock, options_.deadline_ms);
  }

  // Content-addressed artifact cache: either borrowed from the caller
  // (the resident server shares one across requests) or opened per run
  // (the deadline and cancel token are run-scoped), disabled with a
  // warning on failure.
  std::optional<cache::ArtifactCache> artifacts;
  std::optional<cache::PipelineCache> memo;
  cache::ArtifactCache* active_cache = options_.cache;
  if (active_cache == nullptr && !options_.cache_dir.empty()) {
    cache::ArtifactCacheOptions copts;
    copts.dir = options_.cache_dir;
    copts.max_bytes = options_.cache_max_bytes;
    copts.metrics = options_.metrics;
    copts.cancel = options_.cancel;
    copts.deadline = deadline;
    Result<cache::ArtifactCache> opened =
        cache::ArtifactCache::Open(std::move(copts));
    if (opened.ok()) {
      artifacts.emplace(std::move(opened).value());
      active_cache = &*artifacts;
    } else {
      COLSCOPE_LOG(Warn) << "artifact cache disabled: "
                         << opened.status().ToString();
    }
  }
  if (active_cache != nullptr) {
    memo.emplace(active_cache, encoder_, set,
                 Checksum64(SemanticOptionsString(options_)));
  }

  /// A phase artifact from the cache when `use_cache`, else computed. An
  /// interrupted lookup ends the phase with its status; any other cache
  /// failure warns and falls back to `compute`.
  const auto cached_or_computed = [](bool use_cache, const char* artifact,
                                     auto&& lookup, auto&& compute)
      -> decltype(lookup()) {
    if (use_cache) {
      auto cached = lookup();
      if (cached.ok() || cached.status().interrupted()) return cached;
      COLSCOPE_LOG(Warn) << "cached " << artifact
                         << " failed: " << cached.status().ToString()
                         << "; recomputing";
    }
    return compute();
  };

  /// Phase III for the configured scoper.
  const auto assess = [&]() -> Result<std::vector<bool>> {
    switch (options_.scoper) {
      case ScoperKind::kNone:
        return std::vector<bool>(run.signatures.size(), true);
      case ScoperKind::kCollaborativePca: {
        if (distributed) {
          return ScopeViaWorkers(run.signatures, set.num_schemas(), options_,
                                 deadline, run);
        }
        if (options_.exchange.enabled) {
          // Exchange runs never cache the keep mask: phase III replays
          // over the faulty transport so the degradation report reflects
          // this run.
          return ScopeViaExchange(run.signatures, set.num_schemas(),
                                  run.local_models, options_,
                                  options_.cancel, deadline, run);
        }
        obs::ScopedSpan span(options_.tracer, "pipeline.assess");
        return cached_or_computed(
            memo.has_value(), "keep mask",
            [&] {
              return memo->AssessAll(run.signatures, run.local_models,
                                     options_.metrics);
            },
            [&] {
              return scoping::AssessAll(run.signatures, set.num_schemas(),
                                        run.local_models, options_.metrics);
            });
      }
      case ScoperKind::kCollaborativeNeural: {
        obs::ScopedSpan span(options_.tracer, "pipeline.assess");
        return scoping::CollaborativeScopingNeural(
            run.signatures, set.num_schemas(), options_.neural,
            options_.metrics);
      }
      case ScoperKind::kGlobalScoping: {
        obs::ScopedSpan span(options_.tracer, "pipeline.assess");
        return scoping::GlobalScoping(run.signatures, *options_.detector,
                                      options_.keep_portion);
      }
    }
    return Status::Internal("unknown scoper");
  };

  /// One row of the phase table, in kPipelinePhases order. A cancelled or
  /// expired run stops at the boundary after each stop-point phase; the
  /// cheap tail after phase III runs to completion once reached.
  struct Phase {
    const char* name;
    bool runs;
    bool stop_point;
    std::function<Status()> body;
  };
  const Phase phases[] = {
      {"signatures", true, true,
       [&] {
         return MoveInto(
             cached_or_computed(
                 memo.has_value(), "signatures",
                 [&] { return memo->BuildSignatures(options_.tracer, pool); },
                 [&] {
                   return scoping::BuildSignatures(set, *encoder_, {},
                                                   options_.tracer, pool);
                 }),
             run.signatures);
       }},
      {"local_models",
       options_.scoper == ScoperKind::kCollaborativePca && !distributed, true,
       [&] {
         obs::ScopedSpan span(options_.tracer, "pipeline.fit_local_models");
         span.AddArg("schemas", static_cast<long long>(set.num_schemas()));
         std::vector<size_t> schemas(set.num_schemas());
         std::iota(schemas.begin(), schemas.end(), size_t{0});
         return MoveInto(
             cached_or_computed(
                 memo.has_value(), "local models",
                 [&] {
                   return memo->FitLocalModels(run.signatures,
                                               options_.explained_variance,
                                               pool, options_.cancel);
                 },
                 [&] {
                   return scoping::FitLocalModelsOf(
                       run.signatures, schemas, options_.explained_variance,
                       pool, options_.cancel);
                 }),
             run.local_models);
       }},
      {"keep_mask", true, true, [&] { return MoveInto(assess(), run.keep); }},
      {"streamline", true, false,
       [&] {
         obs::ScopedSpan span(options_.tracer, "pipeline.streamline");
         run.streamlined =
             scoping::BuildStreamlinedSchemas(set, run.signatures, run.keep);
         span.AddArg("kept", static_cast<long long>(run.num_kept()));
         return Status::Ok();
       }},
      {"match", true, false,
       [&] {
         obs::ScopedSpan span(options_.tracer, "pipeline.match");
         // Per-source-pair similarity blocks: only blocks touching a dirty
         // source (or a changed keep slice) recompute on a warm run.
         COLSCOPE_RETURN_IF_ERROR(MoveInto(
             cached_or_computed(
                 memo.has_value() && !matcher.BlockCacheId().empty(),
                 "match",
                 [&] { return memo->Match(run.signatures, run.keep, matcher); },
                 [&] { return matcher.Match(run.signatures, run.keep); }),
             run.linkages));
         span.AddArg("linkages", static_cast<long long>(run.linkages.size()));
         return Status::Ok();
       }},
      {"evaluate", truth != nullptr, false,
       [&] {
         obs::ScopedSpan span(options_.tracer, "pipeline.evaluate");
         run.quality = eval::EvaluateMatching(
             run.linkages, *truth,
             set.TableCartesianSize() + set.AttributeCartesianSize());
         return Status::Ok();
       }},
  };

  /// Times one phase into pipeline.<phase>_ms, records it as completed,
  /// then applies the crash_after_phase hook and, at stop points, the
  /// cancellation/deadline check.
  const auto run_phase = [&](const Phase& phase) -> Status {
    {
      PhaseTimer timer(options_.metrics, options_.tracer, phase.name);
      COLSCOPE_RETURN_IF_ERROR(phase.body());
    }
    run.phases_completed.push_back(phase.name);
    if (options_.crash_after_phase == phase.name) {
      return Status::Internal(
          StrFormat("injected crash after phase %s", phase.name));
    }
    if (!phase.stop_point) return Status::Ok();
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      return Status::Cancelled("pipeline run cancelled");
    }
    if (deadline.expired()) {
      return Status::DeadlineExceeded(
          StrFormat("pipeline run exceeded its %.17g ms deadline",
                    options_.deadline_ms));
    }
    return Status::Ok();
  };

  for (const Phase& phase : phases) {
    if (!phase.runs) continue;
    Status status = run_phase(phase);
    if (status.ok()) continue;
    if (!status.interrupted()) return status;
    // Cancelled or out of time: end the run early but cleanly. Completed
    // phases' artifacts stay in `run`, the stop reason lands in
    // run.status, and the metrics snapshot still happens so the partial
    // report doubles as a profile.
    if (options_.metrics != nullptr) {
      options_.metrics
          ->GetCounter(status.code() == StatusCode::kCancelled
                           ? "pipeline.cancelled"
                           : "pipeline.deadline_exceeded")
          .Increment();
    }
    COLSCOPE_LOG(Warn) << "pipeline run stopped early: " << status.ToString()
                       << " (completed " << run.phases_completed.size()
                       << " phases)";
    run.status = std::move(status);
    if (options_.metrics != nullptr) {
      run.metrics = options_.metrics->Snapshot();
    }
    return run;
  }

  run_span.AddArg("elements", static_cast<long long>(run.keep.size()));
  run_span.AddArg("kept", static_cast<long long>(run.num_kept()));
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& metrics = *options_.metrics;
    metrics.GetGauge("pipeline.schemas")
        .Set(static_cast<double>(set.num_schemas()));
    metrics.GetGauge("pipeline.elements")
        .Set(static_cast<double>(run.keep.size()));
    metrics.GetGauge("pipeline.kept")
        .Set(static_cast<double>(run.num_kept()));
    metrics.GetGauge("pipeline.pruned")
        .Set(static_cast<double>(run.num_pruned()));
    metrics.GetGauge("pipeline.linkages")
        .Set(static_cast<double>(run.linkages.size()));
    run.metrics = metrics.Snapshot();
  }
  return run;
}

}  // namespace colscope::pipeline
