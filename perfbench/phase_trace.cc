#include "phase_trace.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <utility>

#include "embed/hashed_encoder.h"
#include "linalg/matrix.h"
#include "matching/ivf_index.h"
#include "obs/trace.h"
#include "pipeline/report.h"
#include "scoping/collaborative.h"
#include "scoping/signatures.h"
#include "scoping/streamline.h"

namespace perfbench {

namespace {

/// PipelineOptions::explained_variance's default, which every workload
/// runs with.
constexpr double kExplainedVariance = 0.8;
/// IvfMatcher retrieves top_k * 4 + 1 neighbours per query (the
/// oversampled pool in matching/ivf_index.cc); probe_fraction counts the
/// rows a search of that size scans.
constexpr size_t kIvfPoolOversample = 4;
/// Repetitions of the side measurements (warm and serial timings).
constexpr int kSideReps = 3;

/// One traced chain: the run it assembled plus the fitted models, which
/// the pass counting needs and PipelineRun does not keep.
struct ChainOutput {
  RunOutput output;
  std::vector<scoping::LocalModel> models;
};

/// Pipeline::Run's fault-free collaborative path, one public call per
/// phase, each inside a span. BuildSignatures adds its own
/// pipeline.serialize / pipeline.embed spans under perfbench.signatures.
Result<ChainOutput> RunChain(const PhaseTraceInput& input,
                             obs::Tracer* tracer) {
  obs::ScopedSpan root(tracer, "perfbench.op");
  ChainOutput chain;
  RunOutput& out = chain.output;
  pipeline::PipelineRun& run = out.run;
  {
    obs::ScopedSpan span(tracer, "perfbench.parse");
    Result<schema::SchemaSet> set = ParseSources(*input.sources);
    if (!set.ok()) return set.status();
    out.set = std::move(set).value();
  }
  const embed::HashedLexiconEncoder encoder;
  std::optional<ThreadPool> pool;
  if (input.threads != 1) pool.emplace(input.threads);
  ThreadPool* const pool_ptr = pool.has_value() ? &*pool : nullptr;
  const size_t num_schemas = out.set.num_schemas();
  {
    obs::ScopedSpan span(tracer, "perfbench.signatures");
    run.signatures =
        scoping::BuildSignatures(out.set, encoder, {}, tracer, pool_ptr);
  }
  run.phases_completed.push_back("signatures");
  {
    obs::ScopedSpan span(tracer, "perfbench.fit");
    Result<std::vector<scoping::LocalModel>> models =
        pool_ptr != nullptr
            ? scoping::FitLocalModelsOnPool(run.signatures, num_schemas,
                                            kExplainedVariance, *pool_ptr)
            : scoping::FitLocalModels(run.signatures, num_schemas,
                                      kExplainedVariance);
    if (!models.ok()) return models.status();
    chain.models = std::move(models).value();
  }
  run.phases_completed.push_back("local_models");
  {
    obs::ScopedSpan span(tracer, "perfbench.assess");
    run.keep = scoping::AssessAll(run.signatures, num_schemas, chain.models);
  }
  run.phases_completed.push_back("keep_mask");
  {
    obs::ScopedSpan span(tracer, "perfbench.streamline");
    run.streamlined =
        scoping::BuildStreamlinedSchemas(out.set, run.signatures, run.keep);
  }
  run.phases_completed.push_back("streamline");
  const std::unique_ptr<matching::Matcher> matcher =
      MakeMatcher(input.matcher, pool_ptr);
  {
    obs::ScopedSpan span(tracer, "perfbench.match");
    run.linkages = matcher->Match(run.signatures, run.keep);
  }
  run.phases_completed.push_back("match");
  {
    obs::ScopedSpan span(tracer, "perfbench.report");
    out.report = pipeline::RunToJson(run, out.set);
  }
  return chain;
}

/// Median duration in ms of the spans called `name`.
double SpanMedianMs(const obs::Tracer& tracer, const std::string& name) {
  std::vector<double> ms;
  for (const obs::TraceEvent& event : tracer.Events()) {
    if (event.name == name) ms.push_back(event.dur_us / 1000.0);
  }
  return Median(std::move(ms));
}

/// Algorithm 2's model passes. Exhaustive: every row against every
/// foreign model. Needed: per row, the 1-based position of the first
/// foreign model that recognizes it (all of them when none does) — what
/// an early exit would pay. `consistent` is false if the recognitions
/// disagree with `keep`.
struct PassCounts {
  double exhaustive = 0.0;
  double needed = 0.0;
  bool consistent = true;
};

PassCounts CountPasses(const scoping::SignatureSet& signatures,
                       size_t num_schemas,
                       const std::vector<scoping::LocalModel>& models,
                       const std::vector<bool>& keep) {
  PassCounts counts;
  for (size_t s = 0; s < num_schemas; ++s) {
    const int schema = static_cast<int>(s);
    const std::vector<size_t> rows = signatures.RowsOfSchema(schema);
    const linalg::Matrix local = signatures.SchemaSignatures(schema);
    std::vector<size_t> first(rows.size(), 0);  // 0 = not recognized
    size_t foreign = 0;
    for (const scoping::LocalModel& model : models) {
      if (model.schema_index() == schema) continue;
      ++foreign;
      const linalg::Vector errors = model.ReconstructionErrors(local);
      for (size_t i = 0; i < rows.size(); ++i) {
        if (first[i] == 0 && errors[i] <= model.linkability_range()) {
          first[i] = foreign;
        }
      }
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      counts.exhaustive += static_cast<double>(foreign);
      counts.needed += static_cast<double>(first[i] != 0 ? first[i] : foreign);
      if ((first[i] != 0) != keep[rows[i]]) counts.consistent = false;
    }
  }
  return counts;
}

/// Share of (query, row) pairs the matcher's searches scan: the IVF
/// index over the kept rows, probed exactly as IvfMatcher::Match probes
/// it. The sim matcher scores every candidate pair, so its share is 1.
double ProbeFraction(const std::string& matcher,
                     const scoping::SignatureSet& signatures,
                     const std::vector<bool>& keep) {
  if (matcher != "ivf") return 1.0;
  std::vector<size_t> rows;
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i]) rows.push_back(i);
  }
  if (rows.size() < 2) return 0.0;
  const size_t cols = signatures.signatures.cols();
  linalg::Matrix subset(rows.size(), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    std::copy_n(signatures.signatures.RowPtr(rows[r]), cols,
                subset.RowPtr(r));
  }
  const matching::IvfMatcher::Options defaults;
  matching::IvfIndex::Options index_options;
  index_options.num_lists = defaults.num_lists;
  index_options.nprobe = defaults.nprobe;
  index_options.quantized = defaults.quantized;
  index_options.seed = defaults.seed;
  const matching::IvfIndex index(std::move(subset), index_options);
  const size_t fetch =
      std::min(rows.size(), defaults.top_k * kIvfPoolOversample + 1);
  double probed = 0.0;
  for (size_t row : rows) {
    probed += static_cast<double>(index.ProbedRows(
        signatures.signatures.RowSpan(row), fetch, defaults.nprobe));
  }
  const double n = static_cast<double>(rows.size());
  return probed / (n * n);
}

}  // namespace

void TracePhases(const PhaseTraceInput& input, Outcome* out) {
  obs::SystemTraceClock clock;
  obs::Tracer tracer(&clock);
  tracer.set_process_name("perfbench");
  const RunOutput& reference = *input.reference;

  // Checks one chain against Pipeline::Run; keeps the last good one.
  std::optional<ChainOutput> last;
  const auto check = [&](Result<ChainOutput> chain) {
    ++out->attempted;
    if (!chain.ok()) {
      ++out->failed;
      out->Fail("phase chain failed: " + chain.status().ToString());
      return;
    }
    const pipeline::PipelineRun& run = chain->output.run;
    if (run.keep != reference.run.keep ||
        run.linkages != reference.run.linkages ||
        chain->output.report != reference.report) {
      ++out->failed;
      out->Fail("phase chain is not equivalent to Pipeline::Run");
      return;
    }
    last = std::move(chain).value();
  };

  std::vector<double> op_ms;
  std::vector<double> chain_ms;
  std::vector<double> traced_ms;
  const double start = NowMs();
  while (op_ms.empty() || NowMs() - start < input.budget_ms) {
    double t0 = NowMs();
    const Result<RunOutput> op =
        RunOperation(*input.sources, input.threads, input.matcher);
    op_ms.push_back(NowMs() - t0);
    ++out->attempted;
    if (!op.ok() || op->report != reference.report) {
      ++out->failed;
      out->Fail("operation differs from the Pipeline::Run reference");
    }

    t0 = NowMs();
    Result<ChainOutput> plain = RunChain(input, nullptr);
    chain_ms.push_back(NowMs() - t0);
    check(std::move(plain));

    t0 = NowMs();
    Result<ChainOutput> traced = RunChain(input, &tracer);
    traced_ms.push_back(NowMs() - t0);
    check(std::move(traced));
  }

  if (!input.trace_path.empty()) {
    std::ofstream file(input.trace_path, std::ios::trunc);
    file << tracer.ToChromeJson() << '\n';
    if (!file) out->Fail("cannot write trace file " + input.trace_path);
  }

  const double parse_ms = SpanMedianMs(tracer, "perfbench.parse");
  const double serialize_ms = SpanMedianMs(tracer, "pipeline.serialize");
  const double encode_ms = SpanMedianMs(tracer, "pipeline.embed");
  const double fit_ms = SpanMedianMs(tracer, "perfbench.fit");
  const double assess_ms = SpanMedianMs(tracer, "perfbench.assess");
  const double streamline_ms = SpanMedianMs(tracer, "perfbench.streamline");
  const double match_ms = SpanMedianMs(tracer, "perfbench.match");
  const double report_ms = SpanMedianMs(tracer, "perfbench.report");

  // Side measurements on the last chain's inputs: the same encoder
  // again (basis memo warm), the encode and fit on one thread.
  double encode_warm_ms = 0.0;
  double encode_serial_ms = 0.0;
  double fit_serial_ms = 0.0;
  PassCounts passes;
  double kept_fraction = 0.0;
  double probe_fraction = 0.0;
  double components = 0.0;
  if (last.has_value()) {
    const RunOutput& chained = last->output;
    const size_t num_schemas = chained.set.num_schemas();
    std::optional<ThreadPool> pool;
    if (input.threads != 1) pool.emplace(input.threads);
    obs::SystemTraceClock side_clock;
    obs::Tracer warm_tracer(&side_clock);
    obs::Tracer serial_tracer(&side_clock);
    const embed::HashedLexiconEncoder warm;
    scoping::BuildSignatures(chained.set, warm, {}, nullptr,
                             pool.has_value() ? &*pool : nullptr);
    std::vector<double> fit_ms_serial;
    for (int rep = 0; rep < kSideReps; ++rep) {
      scoping::BuildSignatures(chained.set, warm, {}, &warm_tracer,
                               pool.has_value() ? &*pool : nullptr);
      const embed::HashedLexiconEncoder fresh;
      scoping::BuildSignatures(chained.set, fresh, {}, &serial_tracer,
                               nullptr);
      const double t0 = NowMs();
      const Result<std::vector<scoping::LocalModel>> models =
          scoping::FitLocalModels(chained.run.signatures, num_schemas,
                                  kExplainedVariance);
      fit_ms_serial.push_back(NowMs() - t0);
      if (!models.ok()) out->Fail("serial fit failed");
    }
    encode_warm_ms = SpanMedianMs(warm_tracer, "pipeline.embed");
    encode_serial_ms = SpanMedianMs(serial_tracer, "pipeline.embed");
    fit_serial_ms = Median(fit_ms_serial);

    passes = CountPasses(chained.run.signatures, num_schemas, last->models,
                         chained.run.keep);
    if (!passes.consistent) {
      out->Fail("model recognitions disagree with the keep mask");
    }
    kept_fraction = static_cast<double>(chained.run.num_kept()) /
                    static_cast<double>(chained.run.keep.size());
    probe_fraction = ProbeFraction(input.matcher, chained.run.signatures,
                                   chained.run.keep);
    for (const scoping::LocalModel& model : last->models) {
      components += static_cast<double>(model.pca().n_components());
    }
  }
  const double threads = static_cast<double>(input.threads);
  const double phase_sum = parse_ms + serialize_ms + encode_ms + fit_ms +
                           assess_ms + streamline_ms + match_ms + report_ms;

  out->Add("schema.parse_ms", parse_ms, "ms");
  out->Add("schema.serialize_ms", serialize_ms, "ms");
  out->Add("embed.encode_ms", encode_ms, "ms");
  out->Add("embed.encode_warm_ms", encode_warm_ms, "ms");
  out->Add("embed.texts",
           static_cast<double>(reference.run.signatures.size()), "count");
  out->Add("embed.parallel_efficiency",
           encode_ms > 0.0 ? encode_serial_ms / (threads * encode_ms) : 0.0,
           "ratio");
  out->Add("scoping.fit_ms", fit_ms, "ms");
  out->Add("scoping.fit_parallel_efficiency",
           fit_ms > 0.0 ? fit_serial_ms / (threads * fit_ms) : 0.0, "ratio");
  out->Add("scoping.models",
           static_cast<double>(reference.set.num_schemas()), "count");
  out->Add("scoping.components_total", components, "count");
  out->Add("scoping.assess_ms", assess_ms, "ms");
  out->Add("scoping.passes_exhaustive", passes.exhaustive, "count");
  out->Add("scoping.passes_needed", passes.needed, "count");
  out->Add("scoping.pass_need_ratio",
           passes.exhaustive > 0.0 ? passes.needed / passes.exhaustive : 0.0,
           "ratio");
  out->Add("scoping.kept_fraction", kept_fraction, "ratio");
  out->Add("scoping.streamline_ms", streamline_ms, "ms");
  out->Add("matching.match_ms", match_ms, "ms");
  out->Add("matching.linkages",
           static_cast<double>(reference.run.linkages.size()), "count");
  out->Add("matching.probe_fraction", probe_fraction, "ratio");
  out->Add("pipeline.report_ms", report_ms, "ms");
  out->Add("pipeline.report_bytes",
           static_cast<double>(reference.report.size()), "bytes");
  out->Add("pipeline.overhead_ms", Median(op_ms) - phase_sum, "ms");
  out->Add("trace.overhead_ms", Median(traced_ms) - Median(chain_ms), "ms");
}

}  // namespace perfbench
