#ifndef COLSCOPE_PIPELINE_PIPELINE_H_
#define COLSCOPE_PIPELINE_PIPELINE_H_

#include <array>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "datasets/linkage.h"
#include "embed/encoder.h"
#include "eval/matching_metrics.h"
#include "exchange/exchange.h"
#include "matching/matcher.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "outlier/oda.h"
#include "schema/schema_set.h"
#include "scoping/collaborative.h"
#include "scoping/neural_collaborative.h"
#include "scoping/signatures.h"

namespace colscope::cache {
class ArtifactCache;
}  // namespace colscope::cache

namespace colscope::pipeline {

/// The phases of Pipeline::Run, in execution order. local_models runs
/// only under kCollaborativePca and evaluate only with ground truth; each
/// phase that runs records a "pipeline.<phase>_ms" latency histogram.
inline constexpr std::array<const char*, 6> kPipelinePhases = {
    "signatures", "local_models", "keep_mask",
    "streamline", "match",        "evaluate"};

/// True iff `name` is one of kPipelinePhases.
bool IsPipelinePhase(std::string_view name);

/// Which pre-processing scoper the pipeline applies before matching.
enum class ScoperKind {
  kNone,                  ///< Traditional pipeline (Figure 2): no pruning.
  kCollaborativePca,      ///< The paper's method (Algorithms 1 + 2).
  kCollaborativeNeural,   ///< Future-work variant: neural encoder-decoders.
  kGlobalScoping,         ///< Prior-work baseline: one ODA + threshold p.
};

/// Parses a --scoper / scope-request name: pca|neural|global|none.
/// InvalidArgument("unknown scoper: <name>") for anything else.
Result<ScoperKind> ParseScoperKind(std::string_view name);

/// One schema's source text and how to parse it ("ddl" -> ParseDdl,
/// "csv" -> LoadCsvSchema), named as the CLI names it (file basename).
/// The cold CLI reads its files into these and a scope request ships
/// them, so both build byte-identical schema sets.
struct SchemaSource {
  std::string kind;  ///< "ddl" or "csv".
  std::string name;
  std::string text;
};

/// Parses every source, in order, into one SchemaSet; a source that
/// fails (or has an unknown kind) is InvalidArgument("<name>: <why>").
Result<schema::SchemaSet> BuildSchemaSet(
    const std::vector<SchemaSource>& sources);

/// Simulated model-exchange settings for kCollaborativePca: when
/// enabled, phase III runs over an in-memory transport with the given
/// fault profile, retrying per `retry` and degrading per `degraded`
/// instead of assuming every peer model arrives intact.
struct ExchangeSimOptions {
  bool enabled = false;
  FaultProfile faults;
  exchange::RetryPolicy retry;
  scoping::DegradedOptions degraded;
};

/// End-to-end configuration: extract -> serialize -> encode -> scope ->
/// match. The encoder and (for kGlobalScoping) the ODA are borrowed
/// pointers and must outlive the pipeline.
struct PipelineOptions {
  ScoperKind scoper = ScoperKind::kCollaborativePca;
  /// Explained-variance target v for kCollaborativePca.
  double explained_variance = 0.8;
  /// Keep portion p and detector for kGlobalScoping.
  double keep_portion = 0.5;
  const outlier::OutlierDetector* detector = nullptr;
  /// Options for kCollaborativeNeural.
  scoping::NeuralLocalModelOptions neural;
  /// Fault-tolerant model exchange for kCollaborativePca.
  ExchangeSimOptions exchange;
  /// Optional observability hooks, both borrowed and both off (null) by
  /// default so uninstrumented runs pay only predicted branches. A
  /// non-null tracer records one span per phase (pipeline.serialize,
  /// .embed, .fit_local_models, .exchange, .assess, .streamline, .match,
  /// .evaluate under a pipeline.run root); a non-null registry collects
  /// element-count gauges, the exchange.* / scoping.* counters, and
  /// per-phase "pipeline.<phase>_ms" latency histograms, and is
  /// snapshotted into PipelineRun::metrics. Phase latencies are measured
  /// on the tracer's clock when a tracer is present (so simulated-clock
  /// runs produce deterministic histograms) and on a steady wall clock
  /// otherwise.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Run-level time budget in milliseconds; non-positive means no
  /// deadline. Checked cooperatively at phase boundaries and propagated
  /// into the model exchange, where each fetch's effective deadline is
  /// capped by the budget remaining. An exhausted budget ends the run
  /// early with PipelineRun::status = kDeadlineExceeded and whatever
  /// artifacts completed phases produced — not an error.
  double deadline_ms = 0.0;
  /// Clock the deadline is measured on. Borrowed; null means a
  /// steady-clock wall timer private to the run. Inject a
  /// SimulatedRunClock to exhaust deadlines deterministically in tests.
  RunClock* clock = nullptr;
  /// Cooperative cancellation: when the token trips, the run stops at
  /// the next phase boundary (and in-flight exchange fetches abort)
  /// with PipelineRun::status = kCancelled. Borrowed; null means not
  /// cancellable.
  const CancellationToken* cancel = nullptr;
  /// Test hook: after the named phase (one of kPipelinePhases) completes,
  /// abort the run with an Internal error — simulating a crash after the
  /// phase's artifacts reached the cache. Run rejects any other non-empty
  /// name with InvalidArgument.
  std::string crash_after_phase;
  /// When non-empty, a content-addressed artifact cache at this
  /// directory memoizes per-source signatures, local models, keep-mask
  /// slices, and per-source-pair similarity blocks (see
  /// cache/pipeline_cache.h). A warm re-run after editing one source
  /// recomputes only that source's artifacts plus the similarity blocks
  /// that touch it, and produces a byte-identical report. Entries are
  /// keyed per source, so the cache survives — and exploits — partial
  /// schema deltas, and a run that crashed or stopped early resumes by
  /// re-running on the same directory. A cache that cannot be opened
  /// disables itself with a warning; it is never a correctness risk.
  std::string cache_dir;
  /// Soft size cap for cache_dir in bytes; 0 means unbounded. Exceeding
  /// it evicts least-recently-used entries.
  uint64_t cache_max_bytes = 0;
  /// Borrowed, already-open artifact cache shared across runs (the
  /// resident server keeps one alive so every request hits warm
  /// entries). Overrides cache_dir/cache_max_bytes when non-null; must
  /// outlive Run(). ArtifactCache::Get is lock-free for concurrent
  /// readers and Put serializes internally, so one cache may back many
  /// concurrent runs.
  cache::ArtifactCache* cache = nullptr;
  /// Worker threads for the parallel phases (signature encoding and
  /// local-model fitting). 1 — the default — keeps every phase on the
  /// calling thread and starts no pool at all; 0 picks the hardware
  /// concurrency. Reports and artifacts are byte-identical at any
  /// setting: parallel phases write per-index slots that are merged in
  /// index order.
  size_t num_threads = 1;
  /// Borrowed worker pool shared with the caller (e.g. the CLI shares
  /// one pool between the pipeline and a pool-aware matcher). Overrides
  /// num_threads when non-null; must outlive Run().
  ThreadPool* pool = nullptr;
};

/// Everything one pipeline run produces; intermediate artifacts are kept
/// so callers can inspect or reuse them.
struct PipelineRun {
  scoping::SignatureSet signatures;
  /// The phase-II models, fitted or restored from the cache; filled by
  /// kCollaborativePca runs only.
  std::vector<scoping::LocalModel> local_models;
  std::vector<bool> keep;               ///< Linkability mask (phase III).
  schema::SchemaSet streamlined;        ///< The S' schemas.
  std::set<matching::ElementPair> linkages;
  /// Filled when ground truth was supplied to Run().
  std::optional<eval::MatchingQuality> quality;
  /// Filled when the run went through the simulated model exchange:
  /// peers lost, retries, faults survived, and the policy applied.
  std::optional<exchange::DegradationReport> degradation;
  /// The effective exchange + transport configuration (fault seed,
  /// retry, policy, worker ownership) of exchange runs, echoed into the
  /// JSON report so degraded runs reproduce from the report alone.
  std::optional<exchange::ExchangeConfigEcho> exchange_config;
  /// Snapshot of PipelineOptions::metrics taken at the end of Run(), so
  /// every report doubles as a profile. Absent for uninstrumented runs.
  std::optional<obs::MetricsSnapshot> metrics;
  /// kOk for a complete run; kCancelled or kDeadlineExceeded when the
  /// run stopped early at a phase boundary. Partial runs are still OK
  /// Results — the artifacts of every completed phase are valid.
  Status status;
  /// Names of the phases that ran to completion, in order (a prefix of
  /// the phases the run executes, see kPipelinePhases).
  std::vector<std::string> phases_completed;
  /// Flight-recorder dump: the last RPC / fault / retry events this
  /// process recorded, serialized into the JSON report when non-empty.
  /// Run() never fills this — comparing two fresh runs must not see
  /// ring state bleed between them. The CLI copies
  /// obs::FlightRecorder::Global().Snapshot() here for runs that ended
  /// degraded (non-OK status or lost workers), where the recent-event
  /// ledger is the post-mortem.
  std::vector<obs::FlightEvent> flight;

  size_t num_kept() const;
  size_t num_pruned() const { return keep.size() - num_kept(); }
};

/// The full workflow of Figure 4 glued together. Stateless between runs;
/// thread-compatible (each Run call is independent).
class Pipeline {
 public:
  /// `encoder` is borrowed and must outlive the pipeline.
  Pipeline(const embed::SentenceEncoder* encoder, PipelineOptions options);

  /// Runs scope + match over `set` with `matcher`. When `truth` is
  /// non-null, PQ/PC/F1/RR are computed against it.
  Result<PipelineRun> Run(const schema::SchemaSet& set,
                          const matching::Matcher& matcher,
                          const datasets::GroundTruth* truth = nullptr) const;

  const PipelineOptions& options() const { return options_; }

 private:
  const embed::SentenceEncoder* encoder_;
  PipelineOptions options_;
};

}  // namespace colscope::pipeline

#endif  // COLSCOPE_PIPELINE_PIPELINE_H_
