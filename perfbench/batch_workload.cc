// Batch workloads (corpus_many, corpus_wide): one generated corpus,
// rendered to DDL, processed end to end again and again — each operation
// is what one `colscope match --json --matcher <m> --threads <n>`
// invocation does. Every report is compared byte for byte with a serial
// (threads = 1) reference computed during set-up.

#include <optional>
#include <utility>

#include "bench.h"
#include "common/strings.h"
#include "datasets/synthetic_corpus.h"
#include "eval/matching_metrics.h"
#include "phase_trace.h"
#include "schema/ddl_writer.h"

namespace perfbench {

namespace {

/// Both batch workloads run the IVF matcher, the CLI's scalable choice.
constexpr char kMatcher[] = "ivf";

struct BatchSetup {
  std::vector<DdlSource> sources;
  RunOutput reference;
  double f1 = 0.0;
};

/// Generates the corpus from the seed, renders each schema to DDL, and
/// runs the serial reference.
Result<BatchSetup> BuildSetup(const Config& config) {
  datasets::CorpusOptions options;
  options.num_schemas = config.schemas;
  options.tables_per_schema = config.tables;
  options.attrs_per_table = config.attrs;
  options.seed = config.seed;
  const datasets::MatchingScenario scenario =
      datasets::BuildCorpusScenario(options);

  BatchSetup setup;
  for (const schema::Schema& schema : scenario.set.schemas()) {
    setup.sources.push_back({schema.name(), schema::WriteDdl(schema)});
  }
  Result<RunOutput> reference = RunOperation(setup.sources, 1, kMatcher);
  if (!reference.ok()) return reference.status();
  setup.reference = std::move(reference).value();

  // The ground truth indexes the generated set; the parsed set must
  // enumerate the same elements in the same order for F1 to be valid.
  const schema::SchemaSet& parsed = setup.reference.set;
  if (parsed.num_elements() != scenario.set.num_elements()) {
    return Status::Internal("DDL round trip changed the element count");
  }
  for (size_t i = 0; i < parsed.num_elements(); ++i) {
    if (parsed.QualifiedName(parsed.elements()[i]) !=
        scenario.set.QualifiedName(scenario.set.elements()[i])) {
      return Status::Internal("DDL round trip reordered elements");
    }
  }
  setup.f1 = eval::EvaluateMatching(setup.reference.run.linkages,
                                    scenario.truth,
                                    scenario.set.TableCartesianSize() +
                                        scenario.set.AttributeCartesianSize())
                 .F1();
  return setup;
}

}  // namespace

Outcome RunBatch(const Config& config) {
  Outcome out;
  std::vector<double> setup_s;
  std::optional<BatchSetup> setup;
  for (int rep = 0; rep < (config.trace ? 1 : kSetupReps); ++rep) {
    const double t0 = NowMs();
    Result<BatchSetup> built = BuildSetup(config);
    setup_s.push_back((NowMs() - t0) / 1000.0);
    if (!built.ok()) {
      out.Fail("set-up failed: " + built.status().ToString());
      return out;
    }
    if (setup.has_value() && built->reference.report != setup->reference.report) {
      out.Fail("set-up is not deterministic");
    }
    setup = std::move(built).value();
  }
  if (setup->f1 < config.f1_floor) {
    out.Fail(StrFormat("match_f1 %.4f is below the floor %.4f", setup->f1,
                       config.f1_floor));
  }

  if (config.trace) {
    PhaseTraceInput input;
    input.sources = &setup->sources;
    input.matcher = kMatcher;
    input.threads = MaxThreads();
    input.reference = &setup->reference;
    input.budget_ms = config.seconds * 1000.0;
    input.trace_path = config.work_dir + "/trace-" + config.workload + ".json";
    TracePhases(input, &out);
    return out;
  }

  std::vector<double> op_ms;
  uint64_t ok = 0;
  const bool rss_window = ResetPeakRss();
  const double start = NowMs();
  do {
    const bool corrupt = config.corrupt == "keep" && out.attempted == 0;
    const double t0 = NowMs();
    const Result<RunOutput> op =
        RunOperation(setup->sources, MaxThreads(), kMatcher, corrupt);
    const double ms = NowMs() - t0;
    ++out.attempted;
    if (!op.ok()) {
      ++out.failed;
      out.Fail("operation failed: " + op.status().ToString());
    } else if (op->report != setup->reference.report) {
      ++out.failed;
      out.Fail("report differs from the serial reference");
    } else {
      ++ok;
      op_ms.push_back(ms);
    }
  } while (NowMs() - start < config.seconds * 1000.0);
  const double elapsed_s = (NowMs() - start) / 1000.0;

  out.Add("setup_s", Median(setup_s), "s");
  out.Add("op_ms_p50", Median(op_ms), "ms");
  out.Add("op_ms_p90", Quantile(op_ms, 0.9), "ms");
  out.Add("goodput_ops", static_cast<double>(ok) / elapsed_s, "1/s");
  out.Add("match_f1", setup->f1, "ratio");
  out.Add("ok_fraction",
          static_cast<double>(ok) / static_cast<double>(out.attempted),
          "ratio");
  AddPeakRss(rss_window, PeakRssMb(), &out);
  return out;
}

}  // namespace perfbench
