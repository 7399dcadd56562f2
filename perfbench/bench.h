#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared vocabulary of the perfbench driver: the parsed flags, the
// outcome every workload fills (checks, counts, named metrics), the one
// operation both batch workloads and the serving references time, and
// small timing/statistics helpers.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "matching/matcher.h"
#include "pipeline/pipeline.h"
#include "schema/schema_set.h"

namespace perfbench {

using namespace colscope;

/// Every knob of a run. run.py fills the shape knobs from
/// perfbench/workloads.json; a benchmark run names only --workload,
/// --seed, --seconds and --trace.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corpus shape: the whole corpus of a batch workload, each schema of
  /// a serving request.
  size_t schemas = 8;
  size_t tables = 4;
  size_t attrs = 8;
  /// Lowest acceptable match_f1; a run below it fails its output check.
  double f1_floor = 0.0;
  /// Self-test hook: "keep" flips one keep bit of the first batch
  /// operation, "reply" alters one byte of the first served reply.
  std::string corrupt = "none";
  /// Scratch directory inside the checkout (cache, trace file).
  std::string work_dir = ".";
};

/// Set-up repetitions of an untraced run; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Pipeline threads, server slots and sender threads: four, or fewer
/// when the machine has fewer cores.
size_t MaxThreads();

/// One named measurement, printed as {"value": v, "unit": u}.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports: whether every output check passed, how many
/// operations it attempted and how many failed, and its metrics.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check; the run then reports correct = false.
  void Fail(std::string why);
};

/// One schema of a workload input: its name and rendered DDL text.
struct DdlSource {
  std::string name;
  std::string text;
};

/// What one pipeline operation produced.
struct RunOutput {
  schema::SchemaSet set;
  pipeline::PipelineRun run;
  std::string report;
};

/// The matcher a workload names, built with the CLI's defaults ("ivf":
/// top_k 5, auto lists, nprobe 8; "sim": threshold 0.6).
std::unique_ptr<matching::Matcher> MakeMatcher(const std::string& name,
                                               ThreadPool* pool);

/// Parses every source with schema::ParseDdl, as the CLI and the server
/// do for DDL inputs.
Result<schema::SchemaSet> ParseSources(const std::vector<DdlSource>& sources);

/// One batch operation, as a `colscope match --json` invocation runs it:
/// parse the DDL, build a fresh encoder (so its basis memo is paid
/// here), run Pipeline::Run on a pool of `threads` shared with the
/// matcher, and render RunToJson. `flip_keep` corrupts one keep bit
/// before rendering (self-test only).
Result<RunOutput> RunOperation(const std::vector<DdlSource>& sources,
                               size_t threads, const std::string& matcher,
                               bool flip_keep = false);

double NowMs();
/// Linearly interpolated quantile of `values` (q in [0, 1]); 0 if empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Returns freed heap to the OS and starts a new peak-RSS window; false
/// when /proc/self/clear_refs cannot be written.
bool ResetPeakRss();
/// Peak resident set size (VmHWM) of this process in MiB since the last
/// ResetPeakRss; nullopt when /proc/self/status has no VmHWM.
std::optional<double> PeakRssMb();
/// Adds peak_rss_mb to `out`, failing the run when the window could not
/// be reset (`window_reset`, ResetPeakRss's result) or VmHWM was not read.
void AddPeakRss(bool window_reset, std::optional<double> peak_mb,
                Outcome* out);

Outcome RunBatch(const Config& config);
Outcome RunServe(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
