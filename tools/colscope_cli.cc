// colscope — command-line front end for the library.
//
// Usage:
//   colscope scope  --ddl a.sql --ddl b.sql [...] [--v 0.8]
//       [--scoper pca|neural|global|none] [--keep-portion 0.5]
//       Prints the per-element linkability assessment and a summary.
//
//   colscope match  --ddl a.sql --ddl b.sql [...] [--v 0.8]
//       [--matcher sim|cluster|lsh|tbsim|str] [--param X]
//       Runs the full pipeline and prints the generated correspondences
//       with cosine scores.
//
//   colscope export --ddl a.sql --ddl b.sql [...] [--v 0.8]
//       Prints the streamlined schemas as SQL DDL.
//
//   colscope fit --ddl a.sql [--v 0.8] [--out model.txt]
//       Self-trains this schema's local encoder-decoder (Algorithm 1)
//       and prints/writes the serialized model — the only artifact a
//       participant publishes in the federated workflow.
//
//   colscope assess --ddl mine.sql --model peer1.txt [--model peer2.txt]
//       Assesses this schema's elements against peers' published models
//       (Algorithm 2) without ever seeing their schemas.
//
//   colscope gen-corpus --out DIR [--seed N] [--schemas K] [--tables T]
//       [--attrs A] [--rows R] [--rename-prob P] [--drift-prob P]
//       [--dropout-prob P] [--noise-prob P]
//       Renders a seeded synthetic schema corpus (DDL + CSV per schema,
//       labels.tsv ground truth) into DIR — byte-identical for a fixed
//       seed (docs/SCALING.md).
//
// Schema names default to the DDL file's basename.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/fault_injector.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "embed/hashed_encoder.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "exchange/exchange.h"
#include "linalg/stats.h"
#include "matching/matcher.h"
#include "net/coordinator.h"
#include "net/worker.h"
#include "server/client.h"
#include "server/server.h"
#include "outlier/pca_oda.h"
#include "pipeline/pipeline.h"
#include "pipeline/report.h"
#include "datasets/synthetic_corpus.h"
#include "schema/ddl_writer.h"
#include "scoping/explain.h"
#include "scoping/model_io.h"

namespace {

using namespace colscope;

struct CliArgs {
  std::string command;
  std::vector<std::string> ddl_paths;   // *.sql -> ParseDdl.
  std::vector<std::string> csv_paths;   // *.csv -> LoadCsvSchema.
  std::vector<std::string> model_paths;
  std::string out_path;
  double v = 0.8;
  double keep_portion = 0.5;
  std::string scoper = "pca";
  // --matcher, --param, and the --quantized (int8 prefilter for
  // lsh/tbsim) and IVF knobs --nprobe, --num-lists, --token-prefilter
  // (docs/SCALING.md).
  matching::MatcherSpec matcher;
  std::string faults;           // --faults drop=0.3,corrupt=0.1,seed=42
  std::string exchange_policy;  // --exchange-policy keep-all|quorum:2|...
  std::string log_level;        // --log-level debug|info|warn|error|off
  std::string metrics_out;      // --metrics-out metrics.json
  std::string trace_out;        // --trace-out trace.json (Chrome format)
  std::string trace_clock = "real";  // --trace-clock real|sim
  double deadline_ms = 0.0;     // --deadline-ms 5000 (<= 0: none)
  std::string run_clock = "real";    // --run-clock real|sim
  std::string cache_dir;        // --cache-dir DIR
  uint64_t cache_max_bytes = 0;  // --cache-max-bytes N (0 = unbounded)
  std::string crash_after;      // --crash-after PHASE (test hook)
  size_t threads = 1;           // --threads N (1 = serial, 0 = hardware)
  // gen-corpus knobs (docs/SCALING.md).
  uint64_t seed = 0xC0905;      // --seed N
  size_t corpus_schemas = 6;    // --schemas K
  size_t corpus_tables = 4;     // --tables T
  size_t corpus_attrs = 8;      // --attrs A
  size_t corpus_rows = 8;       // --rows R
  double rename_prob = 0.4;     // --rename-prob P
  double drift_prob = 0.2;      // --drift-prob P
  double dropout_prob = 0.1;    // --dropout-prob P
  double noise_prob = 0.1;      // --noise-prob P
  bool explain = false;
  bool json = false;
  // Distributed multi-process mode (see docs/DISTRIBUTED.md).
  std::string role;             // --role worker|coordinator
  std::string listen = "127.0.0.1:0";  // --listen HOST:PORT (worker)
  std::string port_file;        // --port-file FILE (worker; ephemeral port)
  std::vector<std::string> workers;    // --workers HOST:PORT (coordinator)
  bool crash_after_assign = false;     // --crash-after-assign (test hook)
  // Resident server mode (--role serve, docs/SERVER.md) and its client
  // (--connect).
  std::string connect;                 // --connect HOST:PORT (client mode)
  size_t max_queue = 16;               // --max-queue N
  size_t max_inflight = 2;             // --max-inflight N
  size_t max_connections = 32;         // --max-connections N
  double request_deadline_ms = 30000;  // --request-deadline-ms MS
  double drain_grace_ms = 5000;        // --drain-grace-ms MS
  double idle_timeout_ms = 10000;      // --idle-timeout-ms MS
  double serve_delay_ms = 0.0;         // --serve-delay-ms MS (test hook)
};

int Usage() {
  std::fprintf(stderr,
               "usage: colscope <scope|match|export> --ddl FILE [--ddl FILE "
               "...]\n"
               "  [--v 0.8] [--scoper pca|neural|global|none]\n"
               "  [--keep-portion 0.5] "
               "[--matcher sim|cluster|lsh|tbsim|str|ivf] [--param X]\n"
               "  [--nprobe N] [--num-lists N] [--token-prefilter]  "
               "(ivf knobs, docs/SCALING.md)\n"
               "  [--faults drop=P,delay=P,truncate=P,corrupt=P,stale=P,"
               "seed=N]\n"
               "  [--exchange-policy fail-closed|keep-all|quorum[:N]]\n"
               "  [--log-level debug|info|warn|error|off]\n"
               "  [--metrics-out FILE.json] [--trace-out FILE.json]\n"
               "  [--trace-clock real|sim]\n"
               "  [--deadline-ms MS] [--run-clock real|sim]\n"
               "  [--cache-dir DIR] [--cache-max-bytes N]\n"
               "  [--crash-after PHASE]  (test hook: signatures|local_models|"
               "keep_mask|\n"
               "      streamline|match|evaluate)\n"
               "  [--threads N]  (1 = serial, 0 = hardware concurrency; "
               "output is identical at any N)\n"
               "  [--quantized]  (int8 prefilter for lsh/tbsim candidate "
               "generation)\n"
               "  env COLSCOPE_FORCE_SCALAR=1 pins the scalar span kernels "
               "(output is identical either way)\n"
               "\n"
               "synthetic corpus generation (docs/SCALING.md):\n"
               "  colscope gen-corpus --out DIR [--seed N] [--schemas K]\n"
               "      [--tables T] [--attrs A] [--rows R] [--rename-prob P]\n"
               "      [--drift-prob P] [--dropout-prob P] [--noise-prob P]\n"
               "\n"
               "resident server mode (docs/SERVER.md):\n"
               "  colscope serve [--listen H:P] [--port-file FILE]\n"
               "      [--max-queue N] [--max-inflight N] "
               "[--max-connections N]\n"
               "      [--request-deadline-ms MS] [--drain-grace-ms MS]\n"
               "      [--idle-timeout-ms MS] [--cache-dir DIR] "
               "[--metrics-out FILE]\n"
               "  colscope scope|match --connect H:P --json --ddl ... "
               "[--deadline-ms MS]\n"
               "  colscope health --connect H:P\n"
               "  colscope shutdown --connect H:P\n"
               "\n"
               "distributed mode (docs/DISTRIBUTED.md):\n"
               "  colscope scope --role worker --ddl ... [--listen H:P]\n"
               "      [--port-file FILE] [--crash-after-assign]\n"
               "  colscope scope|match|export --role coordinator --ddl ...\n"
               "      --workers H:P [--workers H:P ...] [--v 0.8]\n"
               "      [--faults SPEC] [--exchange-policy POLICY] "
               "[--deadline-ms MS]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, CliArgs& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    // Both "--flag value" and "--flag=value" are accepted.
    std::string inline_value;
    bool has_inline = false;
    const size_t eq = flag.find('=');
    if (flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag.resize(eq);
      has_inline = true;
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--ddl") {
      const char* value = next();
      if (value == nullptr) return false;
      args.ddl_paths.push_back(value);
    } else if (flag == "--csv") {
      const char* value = next();
      if (value == nullptr) return false;
      args.csv_paths.push_back(value);
    } else if (flag == "--model") {
      const char* value = next();
      if (value == nullptr) return false;
      args.model_paths.push_back(value);
    } else if (flag == "--out") {
      const char* value = next();
      if (value == nullptr) return false;
      args.out_path = value;
    } else if (flag == "--v") {
      const char* value = next();
      if (value == nullptr) return false;
      args.v = std::atof(value);
    } else if (flag == "--keep-portion") {
      const char* value = next();
      if (value == nullptr) return false;
      args.keep_portion = std::atof(value);
    } else if (flag == "--param") {
      const char* value = next();
      if (value == nullptr) return false;
      args.matcher.param = std::atof(value);
    } else if (flag == "--scoper") {
      const char* value = next();
      if (value == nullptr) return false;
      args.scoper = value;
    } else if (flag == "--matcher") {
      const char* value = next();
      if (value == nullptr) return false;
      args.matcher.name = value;
    } else if (flag == "--faults") {
      const char* value = next();
      if (value == nullptr) return false;
      args.faults = value;
    } else if (flag == "--exchange-policy") {
      const char* value = next();
      if (value == nullptr) return false;
      args.exchange_policy = value;
    } else if (flag == "--log-level") {
      const char* value = next();
      if (value == nullptr) return false;
      args.log_level = value;
    } else if (flag == "--metrics-out") {
      const char* value = next();
      if (value == nullptr) return false;
      args.metrics_out = value;
    } else if (flag == "--trace-out") {
      const char* value = next();
      if (value == nullptr) return false;
      args.trace_out = value;
    } else if (flag == "--trace-clock") {
      const char* value = next();
      if (value == nullptr) return false;
      args.trace_clock = value;
    } else if (flag == "--deadline-ms") {
      const char* value = next();
      if (value == nullptr) return false;
      args.deadline_ms = std::atof(value);
    } else if (flag == "--run-clock") {
      const char* value = next();
      if (value == nullptr) return false;
      args.run_clock = value;
    } else if (flag == "--cache-dir") {
      const char* value = next();
      if (value == nullptr) return false;
      args.cache_dir = value;
    } else if (flag == "--cache-max-bytes") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 0) return false;
      args.cache_max_bytes = static_cast<uint64_t>(n);
    } else if (flag == "--crash-after") {
      const char* value = next();
      if (value == nullptr) return false;
      args.crash_after = value;
    } else if (flag == "--threads") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 0) return false;
      args.threads = static_cast<size_t>(n);
    } else if (flag == "--role") {
      const char* value = next();
      if (value == nullptr) return false;
      args.role = value;
    } else if (flag == "--listen") {
      const char* value = next();
      if (value == nullptr) return false;
      args.listen = value;
    } else if (flag == "--port-file") {
      const char* value = next();
      if (value == nullptr) return false;
      args.port_file = value;
    } else if (flag == "--workers") {
      const char* value = next();
      if (value == nullptr) return false;
      args.workers.push_back(value);
    } else if (flag == "--crash-after-assign") {
      args.crash_after_assign = true;
    } else if (flag == "--connect") {
      const char* value = next();
      if (value == nullptr) return false;
      args.connect = value;
    } else if (flag == "--max-queue") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 1) return false;
      args.max_queue = static_cast<size_t>(n);
    } else if (flag == "--max-inflight") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 1) return false;
      args.max_inflight = static_cast<size_t>(n);
    } else if (flag == "--max-connections") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 1) return false;
      args.max_connections = static_cast<size_t>(n);
    } else if (flag == "--request-deadline-ms") {
      const char* value = next();
      if (value == nullptr) return false;
      args.request_deadline_ms = std::atof(value);
    } else if (flag == "--drain-grace-ms") {
      const char* value = next();
      if (value == nullptr) return false;
      args.drain_grace_ms = std::atof(value);
    } else if (flag == "--idle-timeout-ms") {
      const char* value = next();
      if (value == nullptr) return false;
      args.idle_timeout_ms = std::atof(value);
    } else if (flag == "--serve-delay-ms") {
      const char* value = next();
      if (value == nullptr) return false;
      args.serve_delay_ms = std::atof(value);
    } else if (flag == "--quantized") {
      args.matcher.quantized = true;
    } else if (flag == "--nprobe") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 1) return false;
      args.matcher.nprobe = static_cast<size_t>(n);
    } else if (flag == "--num-lists") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 0) return false;
      args.matcher.num_lists = static_cast<size_t>(n);
    } else if (flag == "--token-prefilter") {
      args.matcher.token_prefilter = true;
    } else if (flag == "--seed") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 0) return false;
      args.seed = static_cast<uint64_t>(n);
    } else if (flag == "--schemas") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 2) return false;
      args.corpus_schemas = static_cast<size_t>(n);
    } else if (flag == "--tables") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 1) return false;
      args.corpus_tables = static_cast<size_t>(n);
    } else if (flag == "--attrs") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 1) return false;
      args.corpus_attrs = static_cast<size_t>(n);
    } else if (flag == "--rows") {
      const char* value = next();
      if (value == nullptr) return false;
      const long long n = std::atoll(value);
      if (n < 0) return false;
      args.corpus_rows = static_cast<size_t>(n);
    } else if (flag == "--rename-prob") {
      const char* value = next();
      if (value == nullptr) return false;
      args.rename_prob = std::atof(value);
    } else if (flag == "--drift-prob") {
      const char* value = next();
      if (value == nullptr) return false;
      args.drift_prob = std::atof(value);
    } else if (flag == "--dropout-prob") {
      const char* value = next();
      if (value == nullptr) return false;
      args.dropout_prob = std::atof(value);
    } else if (flag == "--noise-prob") {
      const char* value = next();
      if (value == nullptr) return false;
      args.noise_prob = std::atof(value);
    } else if (flag == "--explain") {
      args.explain = true;
    } else if (flag == "--json") {
      args.json = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  // The serve role, the health/shutdown probes, and the corpus
  // generator carry no schemas; everything else still requires at least
  // one --ddl/--csv.
  if (args.role == "serve" || args.command == "serve" ||
      args.command == "health" || args.command == "shutdown" ||
      args.command == "gen-corpus") {
    return true;
  }
  return !args.ddl_paths.empty() || !args.csv_paths.empty();
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name.resize(dot);
  return name;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Every --ddl, then every --csv, read into the entries a scope request
/// ships — the schema-set order the report depends on. The cold path
/// parses them with the same pipeline::BuildSchemaSet colscoped uses.
Result<std::vector<pipeline::SchemaSource>> ReadSchemaSources(
    const CliArgs& args) {
  std::vector<pipeline::SchemaSource> sources;
  for (const auto& [kind, paths] :
       {std::pair<const char*, const std::vector<std::string>*>{
            "ddl", &args.ddl_paths},
        {"csv", &args.csv_paths}}) {
    for (const std::string& path : *paths) {
      Result<std::string> text = ReadFile(path);
      if (!text.ok()) return text.status();
      sources.push_back({kind, Basename(path), std::move(text).value()});
    }
  }
  return sources;
}

Result<schema::SchemaSet> LoadSchemas(const CliArgs& args) {
  Result<std::vector<pipeline::SchemaSource>> sources =
      ReadSchemaSources(args);
  if (!sources.ok()) return sources.status();
  return pipeline::BuildSchemaSet(*sources);
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << text << '\n';
  return true;
}

/// Run-level trace id shared by every process of a distributed run:
/// Checksum64 of the fault seed's decimal rendering, masked to 63 bits so
/// span args survive the JSON long-long round trip, forced nonzero
/// (0 means "untraced"). Same seed -> same id, so repeat runs produce
/// byte-identical merged traces.
uint64_t DeriveTraceId(uint64_t seed) {
  const std::string key = StrFormat(
      "colscope-run-%llu", static_cast<unsigned long long>(seed));
  const uint64_t hash = Checksum64(key) & ((1ull << 63) - 1);
  return hash == 0 ? 1 : hash;
}

/// Post-mortem: the flight recorder's recent-event ledger, dumped to
/// stderr when a run dies without producing a report.
void DumpFlightToStderr() {
  for (const obs::FlightEvent& event :
       obs::FlightRecorder::Global().Snapshot()) {
    std::fprintf(stderr, "# flight %llu %s %s\n",
                 static_cast<unsigned long long>(event.seq),
                 event.kind.c_str(), event.detail.c_str());
  }
}

/// The HOST:PORT value of `flag`, or nullopt after printing why it does
/// not parse — a usage error, exit 2.
std::optional<net::Endpoint> EndpointFlag(const char* flag,
                                          const std::string& value) {
  Result<net::Endpoint> endpoint = net::ParseEndpoint(value);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "%s: %s\n", flag,
                 endpoint.status().ToString().c_str());
    return std::nullopt;
  }
  return *endpoint;
}

/// The clock --trace-clock real|sim names, or null after printing why
/// the value is bad — a usage error, exit 2.
obs::TraceClock* TraceClockFlag(const CliArgs& args,
                                obs::SystemTraceClock& real,
                                obs::SimulatedTraceClock& sim) {
  if (args.trace_clock == "real") return &real;
  if (args.trace_clock == "sim") return &sim;
  std::fprintf(stderr, "unknown trace clock (want real|sim): %s\n",
               args.trace_clock.c_str());
  return nullptr;
}

/// A coordinator's observability artifacts: its own metrics and spans
/// plus everything harvested from the surviving workers, as
/// "worker.<i>." metrics and trace pids 1..n. Dead workers are holes, so
/// the merge never blocks on a corpse.
obs::MetricsSnapshot MergeWorkerTelemetry(
    const obs::MetricsRegistry& registry, obs::Tracer& tracer,
    const std::optional<net::WorkerReport>& workers,
    std::vector<obs::ProcessTrace>& processes) {
  obs::MetricsSnapshot merged = registry.Snapshot();
  processes.push_back({0, "coordinator", tracer.trace_id(),
                       tracer.ThreadNames(), tracer.Events()});
  if (!workers.has_value()) return merged;
  for (size_t w = 0; w < workers->telemetry.size(); ++w) {
    if (!workers->telemetry[w].has_value()) continue;
    const net::WorkerTelemetry& telemetry = *workers->telemetry[w];
    obs::MergePrefixed(merged, StrFormat("worker.%zu.", w),
                       telemetry.metrics);
    processes.push_back({static_cast<int>(w) + 1, StrFormat("worker.%zu", w),
                         telemetry.trace_id, telemetry.thread_names,
                         telemetry.events});
  }
  return merged;
}

/// The tail of a serving role (worker, colscoped) once Serve() returned:
/// writes --metrics-out (and --trace-out when `tracer` is set) even after
/// a failed serve loop — that is exactly when they are most interesting —
/// then reports the failure with the flight-recorder ledger. False means
/// exit 1.
bool FinishServing(const CliArgs& args, const Status& served,
                   const obs::MetricsRegistry& registry,
                   const obs::Tracer* tracer) {
  if (!args.metrics_out.empty() &&
      !WriteTextFile(args.metrics_out,
                     obs::SnapshotToJsonString(registry.Snapshot()))) {
    return false;
  }
  if (tracer != nullptr && !args.trace_out.empty() &&
      !WriteTextFile(args.trace_out, tracer->ToChromeJson())) {
    return false;
  }
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.ToString().c_str());
    DumpFlightToStderr();
    return false;
  }
  return true;
}

/// `colscope gen-corpus`: render a seeded synthetic schema corpus
/// (per-schema DDL, per-table CSV, labels.tsv) into --out. Generation is
/// a pure function of the seed and the shape knobs, so repeated runs —
/// at any --threads setting — produce byte-identical directories.
int RunGenCorpus(const CliArgs& args) {
  if (args.out_path.empty()) {
    std::fprintf(stderr, "gen-corpus requires --out DIR\n");
    return 2;
  }
  datasets::CorpusOptions options;
  options.num_schemas = args.corpus_schemas;
  options.tables_per_schema = args.corpus_tables;
  options.attrs_per_table = args.corpus_attrs;
  options.rows_per_table = args.corpus_rows;
  options.rename_probability = args.rename_prob;
  options.type_drift_probability = args.drift_prob;
  options.dropout_probability = args.dropout_prob;
  options.value_noise_probability = args.noise_prob;
  options.seed = args.seed;
  const datasets::SyntheticCorpus corpus =
      datasets::BuildSyntheticCorpus(options);

  std::error_code ec;
  std::filesystem::create_directories(args.out_path, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.out_path.c_str(),
                 ec.message().c_str());
    return 1;
  }
  auto write_raw = [&](const std::string& name,
                       const std::string& contents) {
    const std::string path = args.out_path + "/" + name;
    std::ofstream out(path, std::ios::binary);
    if (!out || !(out << contents)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    return true;
  };
  for (const datasets::CorpusFile& file : corpus.files) {
    if (!write_raw(file.name, file.contents)) return 1;
  }
  if (!write_raw("labels.tsv", corpus.labels_tsv)) return 1;
  std::printf(
      "# gen-corpus seed=%llu: %zu schemas, %zu elements, %zu linkages, "
      "%zu files -> %s\n",
      static_cast<unsigned long long>(options.seed),
      corpus.scenario.set.num_schemas(), corpus.scenario.set.num_elements(),
      corpus.scenario.truth.size(), corpus.files.size() + 1,
      args.out_path.c_str());
  return 0;
}

/// `colscope fit`: train + publish this schema's local model.
int RunFit(const CliArgs& args) {
  Result<schema::SchemaSet> set = LoadSchemas(args);
  if (!set.ok()) {
    std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
    return 1;
  }
  const embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(*set, encoder);
  auto model = scoping::LocalModel::Fit(signatures.SchemaSignatures(0),
                                        args.v, /*schema_index=*/0);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  const std::string serialized = scoping::SerializeLocalModel(*model);
  if (args.out_path.empty()) {
    std::fputs(serialized.c_str(), stdout);
  } else {
    std::ofstream out(args.out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.out_path.c_str());
      return 1;
    }
    out << serialized;
    std::fprintf(stderr, "model (%zu components, l=%.3g) -> %s\n",
                 model->pca().n_components(), model->linkability_range(),
                 args.out_path.c_str());
  }
  return 0;
}

/// `colscope assess`: judge local elements against peers' models.
int RunAssess(const CliArgs& args) {
  if (args.model_paths.empty()) {
    std::fprintf(stderr, "assess requires at least one --model\n");
    return 2;
  }
  Result<schema::SchemaSet> set = LoadSchemas(args);
  if (!set.ok()) {
    std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
    return 1;
  }
  std::vector<scoping::LocalModel> models;
  for (const std::string& path : args.model_paths) {
    Result<std::string> text = ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    Result<scoping::LocalModel> model =
        scoping::DeserializeLocalModel(*text);
    if (!model.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   model.status().ToString().c_str());
      return 1;
    }
    models.push_back(std::move(model).value());
  }
  const embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(*set, encoder);
  const auto local = signatures.SchemaSignatures(0);
  // own_schema_index = -1: every loaded model is a foreign peer.
  const auto linkable = scoping::AssessLinkability(local, -1, models);
  size_t kept = 0;
  const auto rows = signatures.RowsOfSchema(0);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-9s %s\n", linkable[i] ? "linkable" : "pruned",
                set->QualifiedName(signatures.refs[rows[i]]).c_str());
    kept += linkable[i];
  }
  std::printf("# kept %zu / %zu elements against %zu peer model(s)\n", kept,
              rows.size(), models.size());
  return 0;
}

/// `--role worker`: one worker process of a distributed run. Loads its
/// schemas, builds signatures, and serves kAssign / kGetModel / kAssess
/// until a coordinator sends kShutdown. Raw signature rows never leave
/// the process — only fitted models and reduced keep bits do.
///
/// Always instrumented: the per-process registry and tracer feed the
/// coordinator's kStatsRequest harvest, so `--metrics-out`/`--trace-out`
/// are optional local copies, not prerequisites for telemetry.
int RunWorker(const CliArgs& args) {
  Result<schema::SchemaSet> set = LoadSchemas(args);
  if (!set.ok()) {
    std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
    return 1;
  }
  const embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(*set, encoder);

  const std::optional<net::Endpoint> listen =
      EndpointFlag("--listen", args.listen);
  if (!listen.has_value()) return 2;
  obs::SystemTraceClock real_clock;
  obs::SimulatedTraceClock sim_clock;
  obs::TraceClock* clock = TraceClockFlag(args, real_clock, sim_clock);
  if (clock == nullptr) return 2;
  obs::Tracer tracer(clock);
  tracer.set_process_name("worker");
  obs::MetricsRegistry registry;

  net::WorkerOptions options;
  options.listen = *listen;
  options.port_file = args.port_file;
  options.crash_after_assign = args.crash_after_assign;
  options.net.metrics = &registry;
  options.net.tracer = &tracer;
  options.net.clock = clock;
  Result<net::WorkerServer> server =
      net::WorkerServer::Create(&signatures, options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "# worker listening on %s:%u\n",
               listen->host.c_str(), server->port());
  return FinishServing(args, server->Serve(), registry, &tracer) ? 0 : 1;
}

/// `colscope serve` / `--role serve`: the resident colscoped daemon
/// (docs/SERVER.md). Keeps encoder + artifact cache warm and serves
/// scope requests until SIGTERM (or a kShutdown frame) drains it.
int RunServe(const CliArgs& args) {
  const std::optional<net::Endpoint> listen =
      EndpointFlag("--listen", args.listen);
  if (!listen.has_value()) return 2;
  obs::MetricsRegistry registry;
  server::ScopeServerOptions options;
  options.listen = *listen;
  options.port_file = args.port_file;
  options.max_queue = args.max_queue;
  options.max_inflight = args.max_inflight;
  options.max_connections = args.max_connections;
  options.request_deadline_ms = args.request_deadline_ms;
  options.drain_grace_ms = args.drain_grace_ms;
  options.idle_timeout_ms = args.idle_timeout_ms;
  options.serve_delay_ms = args.serve_delay_ms;
  options.cache_dir = args.cache_dir;
  options.cache_max_bytes = args.cache_max_bytes;
  options.threads = args.threads;
  options.metrics = &registry;
  options.net.metrics = &registry;

  Result<server::ScopeServer> daemon =
      server::ScopeServer::Create(std::move(options));
  if (!daemon.ok()) {
    std::fprintf(stderr, "%s\n", daemon.status().ToString().c_str());
    return 1;
  }
  daemon->InstallSignalHandlers();
  std::fprintf(stderr, "# colscoped listening on %s:%u\n",
               listen->host.c_str(), daemon->port());
  if (!FinishServing(args, daemon->Serve(), registry, nullptr)) return 1;
  const server::HealthInfo health = daemon->Health();
  std::fprintf(stderr,
               "# colscoped drained: completed=%llu shed=%llu "
               "deadline_exceeded=%llu failed=%llu\n",
               static_cast<unsigned long long>(health.completed),
               static_cast<unsigned long long>(health.shed),
               static_cast<unsigned long long>(health.deadline_exceeded),
               static_cast<unsigned long long>(health.failed));
  return 0;
}

/// Client-side NetOptions for one server round trip: the io timeout must
/// cover the server's whole execution (queue wait + pipeline), so it
/// follows the request deadline with headroom rather than the 30s
/// per-frame default.
net::NetOptions ClientNetOptions(const CliArgs& args) {
  net::NetOptions net;
  const double deadline =
      args.deadline_ms > 0 ? args.deadline_ms : args.request_deadline_ms;
  net.io_timeout_ms = deadline > 0 ? deadline + 5000.0 : 600000.0;
  return net;
}

/// The daemon a client command talks to (--connect HOST:PORT), or
/// nullopt after printing why — a usage error, exit 2.
std::optional<net::Endpoint> ConnectEndpoint(const CliArgs& args) {
  if (args.connect.empty()) {
    std::fprintf(stderr, "%s requires --connect HOST:PORT\n",
                 args.command.c_str());
    return std::nullopt;
  }
  return EndpointFlag("--connect", args.connect);
}

/// `colscope scope|match --connect H:P --json`: ships the schemas to a
/// resident daemon and prints the JSON report it returns — byte-identical
/// to the same cold `--json` invocation.
int RunScopeClient(const CliArgs& args) {
  if (!args.json) {
    std::fprintf(stderr, "--connect requires --json\n");
    return 2;
  }
  const std::optional<net::Endpoint> endpoint = ConnectEndpoint(args);
  if (!endpoint.has_value()) return 2;
  // A scope request carries only the matcher's name and parameter:
  // refuse the knobs it cannot ship rather than silently serving their
  // defaults.
  const matching::MatcherSpec defaults;
  if (args.matcher.nprobe != defaults.nprobe ||
      args.matcher.num_lists != defaults.num_lists ||
      args.matcher.quantized != defaults.quantized ||
      args.matcher.token_prefilter != defaults.token_prefilter) {
    std::fprintf(stderr,
                 "--connect cannot carry --nprobe, --num-lists, "
                 "--token-prefilter or --quantized\n");
    return 2;
  }
  server::ScopeRequest request;
  request.scoper = args.scoper;
  request.matcher = args.matcher.name;
  request.param = args.matcher.param;
  request.v = args.v;
  request.keep_portion = args.keep_portion;
  request.deadline_ms = args.deadline_ms;
  Result<std::vector<pipeline::SchemaSource>> sources =
      ReadSchemaSources(args);
  if (!sources.ok()) {
    std::fprintf(stderr, "%s\n", sources.status().ToString().c_str());
    return 1;
  }
  request.schemas = std::move(sources).value();
  Result<std::string> report =
      server::RequestScope(*endpoint, request, ClientNetOptions(args));
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    // Typed rejections exit distinctly so harnesses can tell a shed
    // request (3) from a hard failure (1).
    return report.status().code() == StatusCode::kOverloaded ? 3 : 1;
  }
  std::printf("%s\n", report->c_str());
  return 0;
}

/// `colscope health --connect H:P`: lifecycle + accounting probe.
int RunHealthClient(const CliArgs& args) {
  const std::optional<net::Endpoint> endpoint = ConnectEndpoint(args);
  if (!endpoint.has_value()) return 2;
  net::NetOptions net;
  Result<server::HealthInfo> health = server::RequestHealth(*endpoint, net);
  if (!health.ok()) {
    std::fprintf(stderr, "%s\n", health.status().ToString().c_str());
    return 1;
  }
  std::printf("state %s\n", health->state.c_str());
  std::printf("queue_depth %zu\n", health->queue_depth);
  std::printf("inflight %zu\n", health->inflight);
  std::printf("admitted %llu\n",
              static_cast<unsigned long long>(health->admitted));
  std::printf("shed %llu\n", static_cast<unsigned long long>(health->shed));
  std::printf("deadline_exceeded %llu\n",
              static_cast<unsigned long long>(health->deadline_exceeded));
  std::printf("completed %llu\n",
              static_cast<unsigned long long>(health->completed));
  std::printf("failed %llu\n",
              static_cast<unsigned long long>(health->failed));
  return 0;
}

/// `colscope shutdown --connect H:P`: programmatic drain trigger.
int RunShutdownClient(const CliArgs& args) {
  const std::optional<net::Endpoint> endpoint = ConnectEndpoint(args);
  if (!endpoint.has_value()) return 2;
  net::NetOptions net;
  const Status status = server::RequestShutdown(*endpoint, net);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

/// The pipeline run, in process or — `--role coordinator` — with phases
/// II + III on the --workers processes (docs/DISTRIBUTED.md).
int RunPipeline(const CliArgs& args) {
  const bool coordinator = args.role == "coordinator";
  std::vector<net::Endpoint> workers;
  if (coordinator) {
    if (args.workers.empty()) {
      std::fprintf(stderr, "coordinator requires at least one --workers\n");
      return 2;
    }
    if (args.command == "scope" && args.explain) {
      std::fprintf(stderr, "--explain: the models stay on the workers\n");
      return 2;
    }
    for (const std::string& spec : args.workers) {
      const std::optional<net::Endpoint> endpoint =
          EndpointFlag("--workers", spec);
      if (!endpoint.has_value()) return 2;
      workers.push_back(*endpoint);
    }
  }
  Result<schema::SchemaSet> set = LoadSchemas(args);
  if (!set.ok()) {
    std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
    return 1;
  }

  // Observability: a per-run registry plus a tracer over the chosen
  // clock. The simulated clock makes trace/metrics files byte-identical
  // across identical runs (profiling uses the real clock). A coordinator
  // is always instrumented: its report carries the workers' telemetry.
  const bool observe =
      coordinator || !args.metrics_out.empty() || !args.trace_out.empty();
  obs::MetricsRegistry registry;
  obs::SystemTraceClock real_clock;
  obs::SimulatedTraceClock sim_clock;
  obs::TraceClock* trace_clock = TraceClockFlag(args, real_clock, sim_clock);
  if (trace_clock == nullptr) return 2;
  obs::Tracer tracer(trace_clock);

  const embed::HashedLexiconEncoder encoder;
  const outlier::PcaDetector detector(0.5);

  // One worker pool shared by the pipeline's parallel phases and the
  // matcher; absent in the default --threads 1 configuration. Output is
  // byte-identical at any thread count (parallel stages merge per-index
  // slots in index order), so --threads is purely a speed knob.
  std::optional<ThreadPool> pool;
  if (args.threads != 1) pool.emplace(args.threads);

  pipeline::PipelineOptions options;
  if (observe) {
    options.metrics = &registry;
    options.tracer = &tracer;
  }
  options.num_threads = args.threads;
  if (pool.has_value()) options.pool = &*pool;
  options.explained_variance = args.v;
  options.keep_portion = args.keep_portion;

  // Robustness controls: deadline on the chosen run clock and the
  // crash-injection test hook. The simulated run clock advances 1ms per
  // observation, so deadline exhaustion (and therefore the partial
  // report) is byte-reproducible in tests.
  if (args.run_clock != "real" && args.run_clock != "sim") {
    std::fprintf(stderr, "unknown run clock (want real|sim): %s\n",
                 args.run_clock.c_str());
    return 2;
  }
  SystemRunClock real_run_clock;
  SimulatedRunClock sim_run_clock(/*tick_ms=*/1.0);
  if (args.run_clock == "sim") options.clock = &sim_run_clock;
  else options.clock = &real_run_clock;
  options.deadline_ms = args.deadline_ms;
  if (!args.crash_after.empty() &&
      !pipeline::IsPipelinePhase(args.crash_after)) {
    std::fprintf(stderr, "--crash-after: unknown phase: %s\n",
                 args.crash_after.c_str());
    return 2;
  }
  options.crash_after_phase = args.crash_after;
  options.cache_dir = args.cache_dir;
  options.cache_max_bytes = args.cache_max_bytes;
  if (args.cache_max_bytes != 0 && args.cache_dir.empty()) {
    std::fprintf(stderr, "--cache-max-bytes requires --cache-dir\n");
    return 2;
  }
  Result<pipeline::ScoperKind> scoper =
      pipeline::ParseScoperKind(args.scoper);
  if (!scoper.ok()) {
    std::fprintf(stderr, "%s\n", scoper.status().message().c_str());
    return 2;
  }
  options.scoper = *scoper;
  if (options.scoper == pipeline::ScoperKind::kGlobalScoping) {
    options.detector = &detector;
  }

  if (coordinator || !args.faults.empty() || !args.exchange_policy.empty()) {
    options.exchange.enabled = true;
    options.exchange.workers = workers;
    if (!args.faults.empty()) {
      Result<FaultProfile> profile = ParseFaultSpec(args.faults);
      if (!profile.ok()) {
        std::fprintf(stderr, "--faults: %s\n",
                     profile.status().ToString().c_str());
        return 2;
      }
      options.exchange.faults = *profile;
    }
    if (!args.exchange_policy.empty()) {
      Result<scoping::DegradedOptions> degraded =
          scoping::ParseDegradedPolicy(args.exchange_policy);
      if (!degraded.ok()) {
        std::fprintf(stderr, "--exchange-policy: %s\n",
                     degraded.status().ToString().c_str());
        return 2;
      }
      options.exchange.degraded = *degraded;
    }
  }

  std::unique_ptr<matching::Matcher> matcher =
      matching::MakeMatcher(args.matcher, pool.has_value() ? &*pool : nullptr);
  if (matcher == nullptr) {
    std::fprintf(stderr, "unknown matcher: %s\n", args.matcher.name.c_str());
    return 2;
  }

  if (coordinator) {
    tracer.set_process_name("coordinator");
    // The run-level trace id every worker span carries, derived from the
    // fault seed so repeat runs agree on it.
    tracer.set_trace_id(DeriveTraceId(options.exchange.faults.seed));
  }
  pipeline::Pipeline pipe(&encoder, options);
  Result<pipeline::PipelineRun> run = [&] {
    obs::ScopedSpan span(coordinator ? &tracer : nullptr, "coordinator.run");
    Result<pipeline::PipelineRun> result = pipe.Run(*set, *matcher);
    if (coordinator) {
      // Shut the workers down however the run ended, so without the run
      // deadline: the round keeps only its own io timeouts.
      net::NetOptions net;
      net.metrics = &registry;
      net.tracer = &tracer;
      net.clock = trace_clock;
      net::ShutdownWorkers(workers, net);
    }
    return result;
  }();
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    // A failed coordinator writes no report; the flight ledger is its
    // post-mortem.
    if (coordinator) DumpFlightToStderr();
    return 1;
  }
  if (run->degradation.has_value() && !args.json) {
    std::printf("# exchange: %s\n",
                exchange::FormatDegradationReport(*run->degradation).c_str());
  }
  if (run->workers.has_value() && !run->workers->lost_workers.empty()) {
    // The recent-event ledger names the lost workers' missed rounds.
    run->flight = obs::FlightRecorder::Global().Snapshot();
    if (!args.json) {
      std::printf("# lost workers:");
      for (size_t worker : run->workers->lost_workers) {
        std::printf(" %zu (%s)", worker, workers[worker].ToString().c_str());
      }
      std::printf("\n");
    }
  }

  std::string trace_json;
  if (coordinator) {
    std::vector<obs::ProcessTrace> processes;
    run->metrics =
        MergeWorkerTelemetry(registry, tracer, run->workers, processes);
    if (!args.trace_out.empty()) {
      trace_json = obs::MergedTraceToChromeJson(processes);
    }
  } else if (!args.trace_out.empty()) {
    trace_json = tracer.ToChromeJson();
  }
  if (!args.metrics_out.empty() &&
      !WriteTextFile(args.metrics_out,
                     obs::SnapshotToJsonString(
                         coordinator ? *run->metrics : registry.Snapshot()))) {
    return 1;
  }
  if (!args.trace_out.empty() && !WriteTextFile(args.trace_out, trace_json)) {
    return 1;
  }

  if (!run->status.ok()) {
    // Deadline/cancellation stopped the run at a phase boundary. The
    // partial artifacts are still valid, so emit the report (its
    // "status" field says why it is incomplete) and exit cleanly, with
    // the flight recorder's recent-event ledger as the post-mortem.
    run->flight = obs::FlightRecorder::Global().Snapshot();
    if (args.json) {
      std::printf("%s\n", pipeline::RunToJson(*run, *set).c_str());
      return 0;
    }
    std::printf("# run stopped early (%s) after phases:",
                StatusCodeToString(run->status.code()));
    for (const std::string& phase : run->phases_completed) {
      std::printf(" %s", phase.c_str());
    }
    std::printf("\n");
    return 0;
  }

  if (args.command == "scope") {
    std::printf("# linkability assessment (%s, v=%.2f)\n",
                args.scoper.c_str(), args.v);
    if (args.explain && args.scoper == "pca") {
      // Full audit: every foreign model's verdict per element, over the
      // models the run fitted (or restored from the cache).
      const auto explanations =
          scoping::ExplainLinkability(run->signatures, run->local_models);
      for (const auto& explanation : explanations) {
        std::printf("%s\n",
                    scoping::FormatExplanation(explanation, *set).c_str());
      }
    } else {
      for (size_t i = 0; i < run->keep.size(); ++i) {
        std::printf("%-9s %s\n", run->keep[i] ? "linkable" : "pruned",
                    set->QualifiedName(run->signatures.refs[i]).c_str());
      }
    }
    std::printf("# kept %zu / %zu elements\n", run->num_kept(),
                run->keep.size());
    return 0;
  }
  if (args.command == "match") {
    if (args.json) {
      std::printf("%s\n", pipeline::RunToJson(*run, *set).c_str());
      return 0;
    }
    std::printf("# %zu correspondences from %s on streamlined schemas\n",
                run->linkages.size(), matcher->name().c_str());
    for (const auto& [a, b] : run->linkages) {
      const double cosine = linalg::CosineSimilarity(
          run->signatures.signatures.Row(set->IndexOf(a)),
          run->signatures.signatures.Row(set->IndexOf(b)));
      std::printf("%.3f  %s <-> %s\n", cosine,
                  set->QualifiedName(a).c_str(),
                  set->QualifiedName(b).c_str());
    }
    return 0;
  }
  if (args.command == "export") {
    for (const schema::Schema& s : run->streamlined.schemas()) {
      std::printf("%s\n", schema::WriteDdl(s).c_str());
    }
    return 0;
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, args)) return Usage();
  if (!args.log_level.empty()) {
    Result<obs::LogLevel> level = obs::ParseLogLevel(args.log_level);
    if (!level.ok()) {
      std::fprintf(stderr, "--log-level: %s\n",
                   level.status().ToString().c_str());
      return 2;
    }
    obs::Logger::Global().set_level(*level);
  }
  if (!args.role.empty()) {
    if (args.role == "worker") return RunWorker(args);
    if (args.role == "coordinator") {
      if (args.command != "scope" && args.command != "match" &&
          args.command != "export") {
        return Usage();
      }
      return RunPipeline(args);
    }
    if (args.role == "serve") return RunServe(args);
    std::fprintf(stderr, "unknown role (want worker|coordinator|serve): %s\n",
                 args.role.c_str());
    return 2;
  }
  if (args.command == "serve") return RunServe(args);
  if (args.command == "health") return RunHealthClient(args);
  if (args.command == "shutdown") return RunShutdownClient(args);
  if (args.command == "gen-corpus") return RunGenCorpus(args);
  if (args.command == "fit") return RunFit(args);
  if (args.command == "assess") return RunAssess(args);
  if (args.command != "scope" && args.command != "match" &&
      args.command != "export") {
    return Usage();
  }
  if (!args.connect.empty()) {
    if (args.command != "scope" && args.command != "match") {
      std::fprintf(stderr, "--connect only supports scope|match\n");
      return 2;
    }
    return RunScopeClient(args);
  }
  return RunPipeline(args);
}
