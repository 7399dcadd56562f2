#ifndef PERFBENCH_PHASE_TRACE_H_
#define PERFBENCH_PHASE_TRACE_H_

// The traced run's phase chain. Instead of calling Pipeline::Run, it
// calls each layer's public entry point itself — ParseDdl,
// BuildSignatures, FitLocalModels(OnPool), AssessAll,
// BuildStreamlinedSchemas, Matcher::Match, RunToJson — inside obs::Tracer
// spans, and checks that the chained keep mask, linkages and report equal
// Pipeline::Run's, so the per-layer numbers describe the program the
// end-to-end numbers time.

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct PhaseTraceInput {
  const std::vector<DdlSource>* sources = nullptr;
  std::string matcher;
  size_t threads = 1;
  /// Pipeline::Run's output for the same sources (any thread count —
  /// outputs are byte-identical).
  const RunOutput* reference = nullptr;
  /// Wall budget for the alternating untraced/traced operations.
  double budget_ms = 0.0;
  /// Where the Chrome trace of every traced operation is written.
  std::string trace_path;
};

/// Until the budget is spent (at least once), runs RunOperation, the
/// chain without a tracer and the chain with one; checks that both chains
/// equal Pipeline::Run; and adds the schema.* / embed.* / scoping.* /
/// matching.* / pipeline.* per-layer metrics and trace.overhead_ms
/// (traced minus untraced chain) to `out`.
void TracePhases(const PhaseTraceInput& input, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_PHASE_TRACE_H_
