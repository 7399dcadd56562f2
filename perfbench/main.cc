// perfbench: the repository's end-to-end benchmark driver. It runs one
// workload for a fixed wall budget, checks every output, and prints one
// JSON object on the last line of stdout with the metrics the workload
// measured:
//
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 when every check passed, 1 when one failed (the JSON is
// still printed), 2 for bad flags. Normally started through run.py,
// which builds this binary, fills the shape flags from
// perfbench/workloads.json, and orders and checks the metrics against
// BENCHMARK.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.h"

namespace {

using perfbench::Config;
using perfbench::Metric;
using perfbench::Outcome;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload corpus_many|corpus_wide|"
               "serve_mixed --seed N --seconds S --trace 0|1 [shape flags]\n",
               why);
  return 2;
}

bool ParseFlags(int argc, char** argv, Config* config) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) return false;
    flags[argv[i] + 2] = argv[i + 1];
  }
  const auto take = [&](const char* name, auto* field) {
    const auto it = flags.find(name);
    if (it == flags.end()) return;
    using T = std::remove_pointer_t<decltype(field)>;
    if constexpr (std::is_same_v<T, std::string>) {
      *field = it->second;
    } else if constexpr (std::is_same_v<T, double>) {
      *field = std::strtod(it->second.c_str(), nullptr);
    } else if constexpr (std::is_same_v<T, bool>) {
      *field = it->second != "0";
    } else {
      *field = static_cast<T>(std::strtoull(it->second.c_str(), nullptr, 10));
    }
    flags.erase(it);
  };
  take("workload", &config->workload);
  take("seed", &config->seed);
  take("seconds", &config->seconds);
  take("trace", &config->trace);
  take("schemas", &config->schemas);
  take("tables", &config->tables);
  take("attrs", &config->attrs);
  take("f1-floor", &config->f1_floor);
  take("corrupt", &config->corrupt);
  take("work-dir", &config->work_dir);
  return flags.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  if (!ParseFlags(argc, argv, &config)) return Usage("malformed flags");
  if (config.seconds <= 0.0) return Usage("--seconds must be positive");
  if (config.schemas < 2 || config.tables == 0 || config.attrs == 0) {
    return Usage("a corpus needs two schemas, a table and an attribute");
  }

  Outcome out;
  if (config.workload == "corpus_many" || config.workload == "corpus_wide") {
    out = perfbench::RunBatch(config);
  } else if (config.workload == "serve_mixed") {
    out = perfbench::RunServe(config);
  } else {
    return Usage("unknown workload");
  }
  for (Metric& metric : out.metrics) {
    if (!std::isfinite(metric.value)) {
      out.Fail("metric " + metric.name + " is not finite");
      metric.value = 0.0;
    }
  }

  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("# attempted %llu failed %llu error_rate %.6f\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.attempted == 0 ? 1.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted));
  if (out.attempted == 0) out.Fail("no operation was attempted");
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out.metrics[i].name.c_str(),
                out.metrics[i].value, out.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
