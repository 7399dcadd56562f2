// Phase-attributed pipeline benchmark: runs the full Pipeline::Run (IVF
// matcher) over OC3, OC3-FO and `colscope gen-corpus --seed 7` corpora
// at 1 and 4 threads, and reports where the wall time goes — the
// signatures / local_models / keep_mask / match split — plus how many
// of Algorithm 2's model passes the early exit still performs.
//
// Gated cells are machine-portable (see tools/check_bench_regression.py):
//   ok                  the 4-thread report is byte-identical to the
//                       1-thread one, the keep mask equals the exhaustive
//                       reference (every foreign model scores every row
//                       through the whole-matrix overload), and the
//                       exhaustive pass counter is |S|·(|M|−1) exactly
//   early_exit_speedup  exhaustive-reference assess ms / AssessAll ms
// The timing ratio is gated only in the full baseline, on its largest
// corpus; everywhere else it is named early_exit_advantage, so PR smoke
// runs never gate on wall time. Phase ms, phase shares and the
// performed/exhaustive pass ratio are informational.
//
// Flags:
//   --smoke     OC3, OC3-FO and 16 generated schemas (seconds)
//   --out DIR   directory for BENCH_pipeline_phases.json (default ".")
//   --reps N    best-of-N repetitions per timing (default 3; smoke 1)

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "datasets/oc3.h"
#include "datasets/synthetic_corpus.h"
#include "embed/hashed_encoder.h"
#include "matching/ivf_index.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "pipeline/report.h"
#include "scoping/collaborative.h"

namespace {

using namespace colscope;

constexpr double kExplainedVariance = 0.8;
constexpr std::array<const char*, 4> kTimedPhases = {
    "signatures", "local_models", "keep_mask", "match"};

std::string StringFlag(int argc, char** argv, const char* name,
                       const std::string& default_value) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return default_value;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall ms of `body`.
template <typename Body>
double BestOfMs(int reps, Body&& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double start = NowMs();
    body();
    const double elapsed = NowMs() - start;
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

double PhaseMs(const obs::MetricsSnapshot& snapshot, const char* phase) {
  const std::string name = StrFormat("pipeline.%s_ms", phase);
  for (const auto& [key, histogram] : snapshot.histograms) {
    if (key == name) return histogram.sum;
  }
  return 0.0;
}

uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      const char* name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// One instrumented Pipeline::Run at `threads`; returns its wall ms.
double TimedRun(const datasets::MatchingScenario& scenario, size_t threads,
                pipeline::PipelineRun* out) {
  embed::HashedLexiconEncoder encoder;
  ThreadPool pool(threads);
  ThreadPool* shared = threads > 1 ? &pool : nullptr;
  matching::IvfMatcher matcher(matching::IvfMatcher::Options{}, shared);
  obs::MetricsRegistry metrics;
  pipeline::PipelineOptions options;
  options.explained_variance = kExplainedVariance;
  options.metrics = &metrics;
  options.pool = shared;
  pipeline::Pipeline pipe(&encoder, options);
  const double start = NowMs();
  Result<pipeline::PipelineRun> run =
      pipe.Run(scenario.set, matcher, &scenario.truth);
  const double elapsed = NowMs() - start;
  COLSCOPE_CHECK_MSG(run.ok(), "pipeline run failed");
  *out = std::move(run).value();
  return elapsed;
}

/// The report without its embedded metrics (timings differ run to run).
std::string ReportBytes(pipeline::PipelineRun run,
                        const schema::SchemaSet& set) {
  run.metrics.reset();
  return pipeline::RunToJson(run, set);
}

/// Algorithm 2 without the early exit: every foreign model scores every
/// row of each consumer's signature matrix.
std::vector<bool> AssessExhaustively(
    const scoping::SignatureSet& signatures, size_t num_schemas,
    const std::vector<scoping::LocalModel>& models) {
  std::vector<bool> keep(signatures.size(), false);
  for (size_t s = 0; s < num_schemas; ++s) {
    const int schema = static_cast<int>(s);
    const std::vector<size_t> rows = signatures.RowsOfSchema(schema);
    const linalg::Matrix local = signatures.SchemaSignatures(schema);
    for (const scoping::LocalModel& model : models) {
      if (model.schema_index() == schema) continue;
      const linalg::Vector errors = model.ReconstructionErrors(local);
      for (size_t i = 0; i < rows.size(); ++i) {
        if (errors[i] <= model.linkability_range()) keep[rows[i]] = true;
      }
    }
  }
  return keep;
}

struct Corpus {
  std::string label;
  datasets::MatchingScenario scenario;
};

Corpus Generated(size_t num_schemas) {
  datasets::CorpusOptions options;
  options.num_schemas = num_schemas;
  options.seed = 7;
  return {StrFormat("gen_corpus_%zu", num_schemas),
          datasets::BuildCorpusScenario(options)};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::HasFlag(argc, argv, "--smoke");
  const std::string out_dir = StringFlag(argc, argv, "--out", ".");
  const int reps = static_cast<int>(
      bench::FlagValue(argc, argv, "--reps", smoke ? 1 : 3));

  std::vector<Corpus> corpora;
  corpora.push_back({"oc3", datasets::BuildOc3Scenario()});
  corpora.push_back({"oc3_fo", datasets::BuildOc3FoScenario()});
  corpora.push_back(Generated(16));
  if (!smoke) corpora.push_back(Generated(64));

  bench::BenchReport report("pipeline_phases");
  report.metrics().GetGauge("bench.smoke").Set(smoke ? 1.0 : 0.0);
  bench::PrintHeader("Pipeline::Run phase split (ivf matcher, v = 0.8)");
  std::printf("%-14s %7s %9s %9s %9s %9s %9s %9s %10s %4s\n", "corpus",
              "threads", "elements", "wall_ms", "sigs_ms", "models_ms",
              "keep_ms", "match_ms", "pass_ratio", "ok");

  bool all_ok = true;
  for (const Corpus& corpus : corpora) {
    const schema::SchemaSet& set = corpus.scenario.set;
    const size_t num_schemas = set.num_schemas();
    std::string serial_report;
    std::vector<bool> reference_keep;
    pipeline::PipelineRun serial_run;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      // The phase split comes from the fastest rep.
      pipeline::PipelineRun run;
      double wall_ms = 0.0;
      for (int r = 0; r < reps; ++r) {
        pipeline::PipelineRun rep;
        const double ms = TimedRun(corpus.scenario, threads, &rep);
        if (r == 0 || ms < wall_ms) {
          wall_ms = ms;
          run = std::move(rep);
        }
      }
      const obs::MetricsSnapshot& snapshot = *run.metrics;
      const size_t elements = run.signatures.size();
      if (threads == 1) {
        serial_report = ReportBytes(run, set);
        reference_keep = AssessExhaustively(run.signatures, num_schemas,
                                            run.local_models);
      }
      const uint64_t exhaustive =
          CounterValue(snapshot, "scoping.model_passes.exhaustive");
      const uint64_t performed =
          CounterValue(snapshot, "scoping.model_passes.performed");
      const bool ok = ReportBytes(run, set) == serial_report &&
                      run.keep == reference_keep &&
                      exhaustive == elements * (num_schemas - 1);
      all_ok = all_ok && ok;
      const double pass_ratio =
          exhaustive == 0 ? 0.0 : static_cast<double>(performed) / exhaustive;

      std::vector<std::pair<std::string, double>> cells = {
          {"elements", static_cast<double>(elements)}, {"wall_ms", wall_ms}};
      double phase_total = 0.0;
      for (const char* phase : kTimedPhases) {
        phase_total += PhaseMs(snapshot, phase);
      }
      for (const char* phase : kTimedPhases) {
        const double ms = PhaseMs(snapshot, phase);
        cells.emplace_back(StrFormat("%s_ms", phase), ms);
        cells.emplace_back(StrFormat("%s_share", phase),
                           phase_total > 0.0 ? ms / phase_total : 0.0);
      }
      cells.emplace_back("passes_exhaustive", static_cast<double>(exhaustive));
      cells.emplace_back("passes_performed", static_cast<double>(performed));
      cells.emplace_back("pass_ratio", pass_ratio);
      cells.emplace_back("ok", ok ? 1.0 : 0.0);
      report.AddRow("pipeline_phases",
                    StrFormat("%s/threads=%zu", corpus.label.c_str(), threads),
                    std::move(cells));
      std::printf("%-14s %7zu %9zu %9.1f %9.1f %9.1f %9.1f %9.1f %10.3f %4s\n",
                  corpus.label.c_str(), threads, elements, wall_ms,
                  PhaseMs(snapshot, "signatures"),
                  PhaseMs(snapshot, "local_models"),
                  PhaseMs(snapshot, "keep_mask"), PhaseMs(snapshot, "match"),
                  pass_ratio, ok ? "yes" : "NO");
      if (threads == 1) serial_run = std::move(run);
    }

    // Phase III alone, on the serial run's signatures and models.
    const scoping::SignatureSet& signatures = serial_run.signatures;
    const std::vector<scoping::LocalModel>& models = serial_run.local_models;
    std::vector<bool> keep;
    const double exhaustive_ms = BestOfMs(reps, [&] {
      keep = AssessExhaustively(signatures, num_schemas, models);
    });
    const double early_exit_ms = BestOfMs(reps, [&] {
      keep = scoping::AssessAll(signatures, num_schemas, models);
    });
    const bool ok = keep == reference_keep;
    all_ok = all_ok && ok;
    const bool gated = !smoke && &corpus == &corpora.back();
    const double early_exit =
        early_exit_ms > 0.0 ? exhaustive_ms / early_exit_ms : 0.0;
    std::printf("%-14s assess: exhaustive %.1f ms, early exit %.1f ms "
                "(%.1fx)\n",
                corpus.label.c_str(), exhaustive_ms, early_exit_ms,
                early_exit);
    const std::string early_exit_cell =
        gated ? "early_exit_speedup" : "early_exit_advantage";
    report.AddRow("assess", corpus.label,
                  {{"exhaustive_ms", exhaustive_ms},
                   {"early_exit_ms", early_exit_ms},
                   {early_exit_cell, early_exit},
                   {"ok", ok ? 1.0 : 0.0}});
  }

  const bool wrote = report.Write(out_dir);
  return (wrote && all_ok) ? 0 : 1;
}
