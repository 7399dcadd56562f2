// Serving workload (serve_mixed): an in-process ScopeServer with a
// resident artifact cache and no injected service delay, driven open
// loop. The schedule — due times and which request each slot sends — is
// drawn from the seed before the first send. Most requests are warm
// templates over a resident schema pool (every artifact cached during
// set-up); a fixed share swaps in a held-out schema the server has never
// seen, so cache reads and writes, queue wait, the wire and pipeline work
// share the same traffic. Every reply is compared byte for byte with a
// direct Pipeline::Run + RunToJson of the same request, computed during
// set-up.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <utility>

#include "bench.h"
#include "common/strings.h"
#include "datasets/synthetic_corpus.h"
#include "eval/matching_metrics.h"
#include "obs/metrics.h"
#include "phase_trace.h"
#include "schema/ddl_writer.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {

namespace {

/// The traffic mix. Eight templates of four schemas over an eight-schema
/// pool keep every hit warm; one in five requests carries a schema the
/// server has never seen. 5 requests/s is 20-35% of the capacity measured
/// on a shared 4-core host (15-25/s as the host's load varies): low
/// enough that queueing does not amplify the host's speed swings, high
/// enough that Poisson bursts still overlap requests. A reply later than
/// 3 s — about ten times the median on a slow host — counts as failed
/// without being a wrong output.
constexpr size_t kPoolSchemas = 8;
constexpr size_t kTemplates = 8;
constexpr size_t kRequestSchemas = 4;
constexpr double kMissShare = 0.2;
constexpr double kRatePerSecond = 5.0;
constexpr double kLatencyLimitMs = 3000.0;
/// peak_rss_mb is the median of the load's per-window peaks. One peak
/// over the whole load follows which allocator arenas the seed's
/// schedule happened to fill (38-55 MiB over seeds 1-10 on a 4-core
/// host); each window starts from a malloc_trim, so its peak reflects
/// that window's work.
constexpr size_t kRssWindows = 5;

/// One distinct request of the workload and what it must return.
struct DistinctRequest {
  std::vector<DdlSource> sources;
  server::ScopeRequest request;
  std::string expected;  ///< Direct Pipeline::Run + RunToJson bytes.
  double f1 = 0.0;
};

struct Slot {
  double due_ms = 0.0;  ///< From the start of the load.
  size_t request = 0;   ///< Index into ServeSetup::requests.
};

/// Requests [0, kTemplates) are the warm templates; the rest each carry
/// one held-out schema and appear in exactly one slot.
struct ServeSetup {
  std::vector<DistinctRequest> requests;
  std::vector<Slot> schedule;
};

/// The corpus ground truth restricted to `members` (corpus schema
/// indices), re-indexed to the request's schema order.
datasets::GroundTruth RequestTruth(
    const std::vector<size_t>& members,
    const std::map<std::pair<int, int>, std::vector<datasets::Linkage>>&
        by_pair) {
  std::map<int, int> position;
  for (size_t k = 0; k < members.size(); ++k) {
    position[static_cast<int>(members[k])] = static_cast<int>(k);
  }
  datasets::GroundTruth truth;
  for (const auto& [pair, links] : by_pair) {
    if (!position.count(pair.first) || !position.count(pair.second)) continue;
    for (datasets::Linkage link : links) {
      link.a.schema = position[link.a.schema];
      link.b.schema = position[link.b.schema];
      (void)truth.Add(link.type, link.a, link.b);
    }
  }
  return truth;
}

/// Draws the schedule, generates pool + held-out schemas, builds every
/// distinct request and its reference reply.
Result<ServeSetup> BuildSetup(const Config& config, double load_ms) {
  std::mt19937_64 rng(config.seed * 0x9E3779B97F4A7C15ull + 0x5e7e);
  ServeSetup setup;

  // The schedule first: it fixes how many held-out schemas are needed.
  // Poisson arrivals conditioned on their count — rate x duration due
  // times drawn uniformly and sorted — with exactly kMissShare of the
  // slots carrying a held-out schema, so every seed offers the same load
  // and the same miss count; only their placement varies.
  const size_t count =
      std::max<size_t>(1, static_cast<size_t>(kRatePerSecond * load_ms / 1000.0));
  const size_t misses =
      static_cast<size_t>(kMissShare * static_cast<double>(count) + 0.5);
  std::uniform_real_distribution<double> due(0.0, load_ms);
  std::vector<double> due_ms(count);
  for (double& t : due_ms) t = due(rng);
  std::sort(due_ms.begin(), due_ms.end());
  std::vector<bool> is_miss(count, false);
  std::fill_n(is_miss.begin(), misses, true);
  std::shuffle(is_miss.begin(), is_miss.end(), rng);
  std::uniform_int_distribution<size_t> pick_template(0, kTemplates - 1);
  std::vector<size_t> miss_base;  // template each miss request extends
  for (size_t i = 0; i < count; ++i) {
    Slot slot;
    slot.due_ms = due_ms[i];
    if (is_miss[i]) {
      slot.request = kTemplates + miss_base.size();
      miss_base.push_back(pick_template(rng));
    } else {
      slot.request = pick_template(rng);
    }
    setup.schedule.push_back(slot);
  }

  datasets::CorpusOptions options;
  options.num_schemas = kPoolSchemas + miss_base.size();
  options.tables_per_schema = config.tables;
  options.attrs_per_table = config.attrs;
  options.seed = config.seed;
  const datasets::MatchingScenario scenario =
      datasets::BuildCorpusScenario(options);
  std::map<std::pair<int, int>, std::vector<datasets::Linkage>> by_pair;
  for (const datasets::Linkage& link : scenario.truth.linkages()) {
    by_pair[{link.a.schema, link.b.schema}].push_back(link);
  }

  // Templates: kRequestSchemas distinct pool schemas each. Miss requests:
  // a template with its last schema replaced by the next held-out one.
  std::vector<std::vector<size_t>> members;
  std::vector<size_t> pool(kPoolSchemas);
  for (size_t i = 0; i < pool.size(); ++i) pool[i] = i;
  for (size_t t = 0; t < kTemplates; ++t) {
    std::shuffle(pool.begin(), pool.end(), rng);
    std::vector<size_t> chosen(pool.begin(), pool.begin() + kRequestSchemas);
    std::sort(chosen.begin(), chosen.end());
    members.push_back(std::move(chosen));
  }
  for (size_t m = 0; m < miss_base.size(); ++m) {
    std::vector<size_t> chosen = members[miss_base[m]];
    chosen.back() = kPoolSchemas + m;
    members.push_back(std::move(chosen));
  }

  // The references are independent single-threaded runs; spread them
  // over the benchmark's threads.
  setup.requests.resize(members.size());
  std::vector<Status> statuses(members.size());
  ThreadPool workers(MaxThreads());
  const Status ran = workers.ParallelFor(members.size(), [&](size_t r) {
    DistinctRequest& entry = setup.requests[r];
    for (size_t c : members[r]) {
      const schema::Schema& schema = scenario.set.schema(static_cast<int>(c));
      entry.sources.push_back({schema.name(), schema::WriteDdl(schema)});
      entry.request.schemas.push_back(
          {"ddl", schema.name(), entry.sources.back().text});
    }
    entry.request.matcher = "sim";
    Result<RunOutput> reference = RunOperation(entry.sources, 1, "sim");
    if (!reference.ok()) {
      statuses[r] = reference.status();
      return;
    }
    entry.expected = reference->report;
    entry.f1 = eval::EvaluateMatching(
                   reference->run.linkages, RequestTruth(members[r], by_pair),
                   reference->set.TableCartesianSize() +
                       reference->set.AttributeCartesianSize())
                   .F1();
  });
  if (!ran.ok()) return ran;
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return setup;
}

/// An in-process colscoped: Serve() on its own thread, drained and joined
/// on destruction.
class ResidentServer {
 public:
  static Result<std::unique_ptr<ResidentServer>> Start(
      const std::string& cache_dir, obs::MetricsRegistry* metrics) {
    server::ScopeServerOptions options;
    options.listen = net::Endpoint{"127.0.0.1", 0};
    options.max_inflight = MaxThreads();
    options.serve_delay_ms = 0.0;
    options.cache_dir = cache_dir;
    options.threads = 1;
    options.metrics = metrics;
    Result<server::ScopeServer> created =
        server::ScopeServer::Create(std::move(options));
    if (!created.ok()) return created.status();
    return std::unique_ptr<ResidentServer>(
        new ResidentServer(std::move(created).value()));
  }

  ~ResidentServer() {
    daemon_.RequestDrain();
    serving_.join();
  }
  ResidentServer(const ResidentServer&) = delete;
  ResidentServer& operator=(const ResidentServer&) = delete;

  net::Endpoint endpoint() const { return {"127.0.0.1", daemon_.port()}; }

 private:
  explicit ResidentServer(server::ScopeServer daemon)
      : daemon_(std::move(daemon)),
        serving_([this] { (void)daemon_.Serve(); }) {}

  server::ScopeServer daemon_;
  std::thread serving_;
};

/// Sends every template once, serially, so the pool's signatures, models,
/// keep slices and similarity blocks are cached before timing starts.
void WarmUp(const ServeSetup& setup, const net::Endpoint& endpoint,
            Outcome* out) {
  for (size_t t = 0; t < kTemplates; ++t) {
    const Result<std::string> reply = server::RequestScope(
        endpoint, setup.requests[t].request, net::NetOptions{});
    if (!reply.ok() || *reply != setup.requests[t].expected) {
      out->Fail("warm-up reply differs from the direct pipeline run");
    }
  }
}

struct SlotResult {
  double late_ms = 0.0;     ///< Send time minus due time.
  double latency_ms = 0.0;  ///< Reply time minus due time.
  double wire_ms = 0.0;     ///< Reply time minus send time.
  bool correct = false;     ///< Byte-identical reply.
  bool in_time = false;     ///< Replied within kLatencyLimitMs.
  std::string problem;      ///< Why the reply is not correct.
};

struct LoadResult {
  std::vector<SlotResult> slots;
  double elapsed_s = 0.0;
  /// Peak RSS of each of the kRssWindows windows; empty when a window
  /// could not be reset or its peak not read.
  std::vector<double> window_peak_rss_mb;
};

/// Plays the schedule from MaxThreads() sender threads, each with one
/// connection at a time. A sender takes the next slot, sleeps until it is
/// due, sends and waits; when every sender is busy the next request goes
/// out late, and its latency still counts from its due time. Meanwhile
/// the calling thread splits the load into kRssWindows equal windows and
/// records each one's peak RSS; the caller opens the first window.
LoadResult RunLoad(const ServeSetup& setup, const net::Endpoint& endpoint,
                   double load_ms, obs::MetricsRegistry* client_metrics,
                   bool corrupt_first) {
  using Clock = std::chrono::steady_clock;
  const std::vector<Slot>& schedule = setup.schedule;
  LoadResult result;
  result.slots.resize(schedule.size());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  const auto since_start_ms = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - start).count();
  };
  const auto send_loop = [&] {
    net::NetOptions net;
    net.metrics = client_metrics;
    for (size_t i = next.fetch_add(1); i < schedule.size();
         i = next.fetch_add(1)) {
      const Slot& slot = schedule[i];
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(slot.due_ms)));
      const double sent = since_start_ms(Clock::now());
      Result<std::string> reply = server::RequestScope(
          endpoint, setup.requests[slot.request].request, net);
      const double done = since_start_ms(Clock::now());
      SlotResult& r = result.slots[i];
      r.late_ms = sent - slot.due_ms;
      r.latency_ms = done - slot.due_ms;
      r.wire_ms = done - sent;
      if (reply.ok() && corrupt_first && i == 0 && !reply->empty()) {
        (*reply)[reply->size() / 2] ^= 0x01;
      }
      if (!reply.ok()) {
        r.problem = "request failed: " + reply.status().ToString();
      } else if (*reply != setup.requests[slot.request].expected) {
        r.problem = "reply differs from the direct pipeline run";
      } else {
        r.correct = true;
      }
      r.in_time = r.latency_ms <= kLatencyLimitMs;
    }
  };
  std::vector<std::thread> threads;
  for (size_t k = 0; k < MaxThreads(); ++k) threads.emplace_back(send_loop);
  bool rss_ok = true;
  const auto close_window = [&](bool reopen) {
    const std::optional<double> peak = PeakRssMb();
    rss_ok = rss_ok && peak.has_value() && (!reopen || ResetPeakRss());
    result.window_peak_rss_mb.push_back(peak.value_or(0.0));
  };
  for (size_t w = 1; w < kRssWindows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        load_ms * static_cast<double>(w) / kRssWindows)));
    close_window(/*reopen=*/true);
  }
  for (std::thread& thread : threads) thread.join();
  result.elapsed_s = since_start_ms(Clock::now()) / 1000.0;
  close_window(/*reopen=*/false);
  if (!rss_ok) result.window_peak_rss_mb.clear();
  return result;
}

uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return 0;
}

obs::Histogram::Snapshot HistogramValue(const obs::MetricsSnapshot& snapshot,
                                        const std::string& name) {
  for (const auto& [key, value] : snapshot.histograms) {
    if (key == name) return value;
  }
  return {};
}

/// Mean time to encode and decode one scheduled request's frame payload.
double ProtocolMs(const ServeSetup& setup, Outcome* out) {
  const double t0 = NowMs();
  for (const Slot& slot : setup.schedule) {
    const std::string payload =
        server::EncodeScopeRequest(setup.requests[slot.request].request);
    if (!server::DecodeScopeRequest(payload).ok()) {
      out->Fail("request codec round trip failed");
    }
  }
  return (NowMs() - t0) / static_cast<double>(setup.schedule.size());
}

/// The traced run's serving metrics from the server's and the client's
/// registries, both counting the load alone.
void AddServingLayers(const obs::MetricsSnapshot& server,
                      const obs::MetricsSnapshot& client,
                      const LoadResult& load, Outcome* out) {
  const double hits = static_cast<double>(CounterValue(server, "cache.hits"));
  const double misses =
      static_cast<double>(CounterValue(server, "cache.misses"));
  const obs::Histogram::Snapshot lookup =
      HistogramValue(server, "cache_lookup_ms");
  const obs::Histogram::Snapshot exec =
      HistogramValue(server, "server.request_ms");
  std::vector<double> late;
  double wire_sum = 0.0;
  for (const SlotResult& slot : load.slots) {
    late.push_back(slot.late_ms);
    wire_sum += slot.wire_ms;
  }
  const auto count = [](const obs::MetricsSnapshot& snapshot,
                        const char* name) {
    return static_cast<double>(CounterValue(snapshot, name));
  };
  out->Add("cache.hits", hits, "count");
  out->Add("cache.misses", misses, "count");
  out->Add("cache.writes", count(server, "cache.writes"), "count");
  out->Add("cache.hit_ratio",
           hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  // Means from the histograms' exact sums: their quantiles interpolate
  // inside 2x-wide buckets and would only move across bucket edges.
  const auto mean = [](const obs::Histogram::Snapshot& histogram) {
    return histogram.total_count == 0
               ? 0.0
               : histogram.sum / static_cast<double>(histogram.total_count);
  };
  out->Add("cache.lookup_ms", mean(lookup), "ms");
  out->Add("server.exec_ms_mean", mean(exec), "ms");
  out->Add("server.non_exec_share",
           wire_sum > 0.0 ? 1.0 - exec.sum / wire_sum : 0.0, "ratio");
  out->Add("server.admitted", count(server, "server.requests_admitted"),
           "count");
  out->Add("server.shed", count(server, "server.requests_shed"), "count");
  out->Add("net.bytes_sent", count(client, "net.bytes_sent"), "bytes");
  out->Add("net.bytes_received", count(client, "net.bytes_received"),
           "bytes");
  out->Add("loadgen.late_ms_p90", Quantile(late, 0.9), "ms");
}

}  // namespace

Outcome RunServe(const Config& config) {
  Outcome out;
  const std::string cache_dir = config.work_dir + "/serve-cache";
  // The traced run spends a quarter of its budget on the phase chain.
  const double load_ms = config.seconds * 1000.0 * (config.trace ? 0.75 : 1.0);
  obs::MetricsRegistry server_metrics;
  obs::MetricsRegistry client_metrics;

  std::vector<double> setup_s;
  std::optional<ServeSetup> setup;
  std::unique_ptr<ResidentServer> daemon;
  for (int rep = 0; rep < (config.trace ? 1 : kSetupReps); ++rep) {
    daemon.reset();
    std::filesystem::remove_all(cache_dir);
    const double t0 = NowMs();
    Result<ServeSetup> built = BuildSetup(config, load_ms);
    if (!built.ok()) {
      out.Fail("set-up failed: " + built.status().ToString());
      return out;
    }
    Result<std::unique_ptr<ResidentServer>> started = ResidentServer::Start(
        cache_dir, config.trace ? &server_metrics : nullptr);
    if (!started.ok()) {
      out.Fail("server start failed: " + started.status().ToString());
      return out;
    }
    daemon = std::move(started).value();
    WarmUp(*built, daemon->endpoint(), &out);
    setup_s.push_back((NowMs() - t0) / 1000.0);
    setup = std::move(built).value();
  }

  server_metrics.Reset();  // count the load, not the warm-up
  const bool rss_window = ResetPeakRss();
  const LoadResult load =
      RunLoad(*setup, daemon->endpoint(), load_ms,
              config.trace ? &client_metrics : nullptr,
              config.corrupt == "reply");
  const std::optional<double> peak_rss_mb =
      load.window_peak_rss_mb.empty()
          ? std::nullopt
          : std::optional<double>(Median(load.window_peak_rss_mb));
  daemon.reset();
  std::filesystem::remove_all(cache_dir);

  uint64_t ok = 0;
  std::vector<double> latencies;
  double f1_sum = 0.0;
  for (size_t i = 0; i < load.slots.size(); ++i) {
    const SlotResult& slot = load.slots[i];
    f1_sum += setup->requests[setup->schedule[i].request].f1;
    ++out.attempted;
    if (!slot.correct) {
      ++out.failed;
      out.Fail(slot.problem);
      continue;
    }
    latencies.push_back(slot.latency_ms);
    if (slot.in_time) {
      ++ok;
    } else {
      ++out.failed;  // a deadline miss: failed, but not a wrong output
    }
  }
  const double f1 = f1_sum / static_cast<double>(load.slots.size());
  if (f1 < config.f1_floor) {
    out.Fail(StrFormat("match_f1 %.4f is below the floor %.4f", f1,
                       config.f1_floor));
  }

  if (!config.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("op_ms_p50", Median(latencies), "ms");
    out.Add("op_ms_p90", Quantile(latencies, 0.9), "ms");
    out.Add("goodput_ops", static_cast<double>(ok) / load.elapsed_s, "1/s");
    out.Add("match_f1", f1, "ratio");
    out.Add("ok_fraction",
            static_cast<double>(ok) / static_cast<double>(out.attempted),
            "ratio");
    AddPeakRss(rss_window, peak_rss_mb, &out);
    return out;
  }

  AddServingLayers(server_metrics.Snapshot(), client_metrics.Snapshot(), load,
                   &out);
  out.Add("server.protocol_ms", ProtocolMs(*setup, &out), "ms");

  // Phase attribution of the pipeline work a miss pays: the chain over
  // the first held-out request (a template when the schedule has none).
  const size_t chained = setup->requests.size() > kTemplates ? kTemplates : 0;
  const Result<RunOutput> reference =
      RunOperation(setup->requests[chained].sources, 1, "sim");
  if (!reference.ok()) {
    out.Fail("chain reference failed: " + reference.status().ToString());
    return out;
  }
  PhaseTraceInput input;
  input.sources = &setup->requests[chained].sources;
  input.matcher = "sim";
  input.threads = 1;
  input.reference = &*reference;
  input.budget_ms = config.seconds * 1000.0 - load_ms;
  input.trace_path = config.work_dir + "/trace-" + config.workload + ".json";
  TracePhases(input, &out);
  return out;
}

}  // namespace perfbench
