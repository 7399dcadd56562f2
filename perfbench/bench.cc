#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <thread>
#include <utility>

#include "embed/hashed_encoder.h"
#include "matching/ivf_index.h"
#include "matching/sim.h"
#include "pipeline/report.h"
#include "schema/ddl_parser.h"

namespace perfbench {

void Outcome::Fail(std::string why) {
  correct = false;
  // One line per distinct problem keeps a failing run's log readable.
  if (std::find(problems.begin(), problems.end(), why) == problems.end()) {
    problems.push_back(std::move(why));
  }
}

std::unique_ptr<matching::Matcher> MakeMatcher(const std::string& name,
                                               ThreadPool* pool) {
  if (name == "ivf") {
    return std::make_unique<matching::IvfMatcher>(
        matching::IvfMatcher::Options{}, pool);
  }
  return std::make_unique<matching::SimMatcher>(0.6, pool);
}

Result<schema::SchemaSet> ParseSources(
    const std::vector<DdlSource>& sources) {
  std::vector<schema::Schema> schemas;
  schemas.reserve(sources.size());
  for (const DdlSource& source : sources) {
    Result<schema::Schema> parsed = schema::ParseDdl(source.text, source.name);
    if (!parsed.ok()) return parsed.status();
    schemas.push_back(std::move(parsed).value());
  }
  return schema::SchemaSet(std::move(schemas));
}

Result<RunOutput> RunOperation(const std::vector<DdlSource>& sources,
                               size_t threads, const std::string& matcher,
                               bool flip_keep) {
  RunOutput out;
  Result<schema::SchemaSet> set = ParseSources(sources);
  if (!set.ok()) return set.status();
  out.set = std::move(set).value();

  const embed::HashedLexiconEncoder encoder;
  std::optional<ThreadPool> pool;
  if (threads != 1) pool.emplace(threads);
  pipeline::PipelineOptions options;
  options.num_threads = threads;
  if (pool.has_value()) options.pool = &*pool;
  const std::unique_ptr<matching::Matcher> match =
      MakeMatcher(matcher, options.pool);
  Result<pipeline::PipelineRun> run =
      pipeline::Pipeline(&encoder, options).Run(out.set, *match);
  if (!run.ok()) return run.status();
  if (!run->status.ok()) return run->status;
  out.run = std::move(run).value();
  if (flip_keep && !out.run.keep.empty()) {
    out.run.keep[0] = !out.run.keep[0];
  }
  out.report = pipeline::RunToJson(out.run, out.set);
  return out;
}

size_t MaxThreads() {
  const size_t cores = std::thread::hardware_concurrency();
  return std::clamp<size_t>(cores, 1, 4);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

bool ResetPeakRss() {
  // Hand freed heap back first, so the window starts from live data
  // rather than from whatever set-up's threads left in their arenas.
  malloc_trim(0);
  // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return !clear_refs.fail();
}

std::optional<double> PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return std::nullopt;
}

void AddPeakRss(bool window_reset, std::optional<double> peak_mb,
                Outcome* out) {
  if (!window_reset) out->Fail("cannot reset the peak-RSS window");
  if (!peak_mb.has_value()) out->Fail("cannot read VmHWM");
  out->Add("peak_rss_mb", peak_mb.value_or(0.0), "MiB");
}

}  // namespace perfbench
