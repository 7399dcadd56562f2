// Tests of the observability layer: leveled logging with pluggable
// sinks, the lock-free metrics registry (counters, gauges, histograms),
// the injectable-clock span tracer, the ThreadPool metrics adapter, and
// the Debug-level retry logging of the exchange layer.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "exchange/exchange.h"
#include "exchange/transport.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace colscope {
namespace {

using obs::Counter;
using obs::ExponentialBuckets;
using obs::Gauge;
using obs::Histogram;
using obs::InMemorySink;
using obs::Logger;
using obs::LogLevel;
using obs::MetricsRegistry;
using obs::ParseLogLevel;
using obs::ScopedSpan;
using obs::SimulatedTraceClock;
using obs::Tracer;

/// Restores the global logger's level/fallback and detaches `sink` on
/// scope exit so logging tests cannot leak state into each other.
class ScopedLogCapture {
 public:
  explicit ScopedLogCapture(LogLevel level) : saved_level_(
      Logger::Global().level()) {
    Logger::Global().set_level(level);
    Logger::Global().set_stderr_fallback(false);
    Logger::Global().AddSink(&sink_);
  }
  ~ScopedLogCapture() {
    Logger::Global().RemoveSink(&sink_);
    Logger::Global().set_stderr_fallback(true);
    Logger::Global().set_level(saved_level_);
  }

  const InMemorySink& sink() const { return sink_; }

 private:
  LogLevel saved_level_;
  InMemorySink sink_;
};

// --- Logging -----------------------------------------------------------------

TEST(LogTest, ParseLogLevel) {
  EXPECT_EQ(*ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(*ParseLogLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(*ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(*ParseLogLevel("warning"), LogLevel::kWarn);
  EXPECT_EQ(*ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(*ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("loud").ok());
}

TEST(LogTest, RuntimeLevelFiltersStatements) {
  ScopedLogCapture capture(LogLevel::kWarn);
  COLSCOPE_LOG(Debug) << "too chatty";
  COLSCOPE_LOG(Info) << "still too chatty";
  COLSCOPE_LOG(Warn) << "warned";
  COLSCOPE_LOG(Error) << "failed";
  const std::vector<std::string> lines = capture.sink().lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("[warn"), std::string::npos);
  EXPECT_NE(lines[0].find("warned"), std::string::npos);
  EXPECT_NE(lines[1].find("[error"), std::string::npos);
  EXPECT_NE(lines[1].find("failed"), std::string::npos);
}

TEST(LogTest, OffSilencesEverything) {
  ScopedLogCapture capture(LogLevel::kOff);
  COLSCOPE_LOG(Error) << "even errors";
  EXPECT_EQ(capture.sink().size(), 0u);
}

TEST(LogTest, MessageExpressionNotEvaluatedWhenFiltered) {
  ScopedLogCapture capture(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&]() {
    ++evaluations;
    return "payload";
  };
  COLSCOPE_LOG(Debug) << expensive();
  EXPECT_EQ(evaluations, 0);
  COLSCOPE_LOG(Error) << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST(LogTest, FormatIncludesLevelFileAndLine) {
  ScopedLogCapture capture(LogLevel::kInfo);
  COLSCOPE_LOG(Info) << "x=" << 42;
  ASSERT_EQ(capture.sink().size(), 1u);
  const std::string line = capture.sink().lines()[0];
  EXPECT_NE(line.find("[info obs_test.cc:"), std::string::npos);
  EXPECT_NE(line.find("x=42"), std::string::npos);
}

// --- Counters and gauges -----------------------------------------------------

TEST(MetricsTest, CounterBasics) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(MetricsTest, ConcurrentCounterIncrementsFromThreadPoolWorkers) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("work.items");
  {
    ThreadPool pool(4);
    for (int task = 0; task < 64; ++task) {
      pool.Schedule([&counter] {
        for (int i = 0; i < 1000; ++i) counter.Increment();
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.value(), 64u * 1000u);
}

TEST(MetricsTest, GaugeAddIsLosslessUnderContention) {
  Gauge gauge;
  {
    ThreadPool pool(4);
    for (int task = 0; task < 8; ++task) {
      pool.Schedule([&gauge] {
        for (int i = 0; i < 500; ++i) gauge.Add(1.0);
      });
    }
    pool.Wait();
  }
  EXPECT_DOUBLE_EQ(gauge.value(), 4000.0);
}

// --- Histograms --------------------------------------------------------------

TEST(MetricsTest, HistogramBucketAssignment) {
  Histogram histogram({1.0, 10.0, 100.0});
  for (double value : {0.5, 1.0, 5.0, 50.0, 1000.0}) {
    histogram.Observe(value);
  }
  const auto snapshot = histogram.TakeSnapshot();
  // Bounds are inclusive upper edges; 1000 overflows into +inf.
  ASSERT_EQ(snapshot.counts.size(), 4u);
  EXPECT_EQ(snapshot.counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(snapshot.counts[1], 1u);  // 5.0
  EXPECT_EQ(snapshot.counts[2], 1u);  // 50.0
  EXPECT_EQ(snapshot.counts[3], 1u);  // 1000.0
  EXPECT_EQ(snapshot.total_count, 5u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 1056.5);
}

TEST(MetricsTest, HistogramQuantiles) {
  Histogram histogram({10.0, 20.0, 30.0, 40.0});
  // 10 observations per decade bucket: uniform over (0, 40].
  for (int bucket = 0; bucket < 4; ++bucket) {
    for (int i = 0; i < 10; ++i) {
      histogram.Observe(10.0 * bucket + 5.0);
    }
  }
  const auto snapshot = histogram.TakeSnapshot();
  EXPECT_NEAR(snapshot.Quantile(0.25), 10.0, 1.0);
  EXPECT_NEAR(snapshot.Quantile(0.5), 20.0, 1.0);
  EXPECT_NEAR(snapshot.Quantile(0.75), 30.0, 1.0);
  EXPECT_LE(snapshot.Quantile(1.0), 40.0);
  // Quantiles of an empty histogram are defined (0) rather than UB.
  EXPECT_DOUBLE_EQ(Histogram({1.0}).TakeSnapshot().Quantile(0.5), 0.0);
}

TEST(MetricsTest, ExponentialBuckets) {
  const std::vector<double> bounds = ExponentialBuckets(1.0, 4.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 4.0);
  EXPECT_DOUBLE_EQ(bounds[2], 16.0);
  EXPECT_DOUBLE_EQ(bounds[3], 64.0);
}

// --- Registry and JSON -------------------------------------------------------

TEST(MetricsTest, RegistryReturnsStableInstruments) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("hits");
  Counter& b = registry.GetCounter("hits");
  EXPECT_EQ(&a, &b);
  a.Increment(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsTest, SnapshotIsSortedAndJsonIsDeterministic) {
  MetricsRegistry registry;
  registry.GetCounter("zebra").Increment(1);
  registry.GetCounter("aardvark").Increment(2);
  registry.GetGauge("mid").Set(1.5);
  registry.GetHistogram("lat", {1.0, 2.0}).Observe(1.5);

  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "aardvark");
  EXPECT_EQ(snapshot.counters[1].first, "zebra");

  const std::string json = obs::SnapshotToJsonString(snapshot);
  EXPECT_EQ(json, obs::SnapshotToJsonString(registry.Snapshot()));
  EXPECT_NE(json.find("\"counters\":{\"aardvark\":2,\"zebra\":1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"mid\":1.5}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{\"lat\":"), std::string::npos);
}

TEST(MetricsTest, ResetZeroesValuesButKeepsNames) {
  MetricsRegistry registry;
  registry.GetCounter("n").Increment(5);
  registry.GetGauge("g").Set(2.0);
  registry.GetHistogram("h", {1.0}).Observe(0.5);
  registry.Reset();
  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].second, 0u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 0.0);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].second.total_count, 0u);
}

// --- Tracer ------------------------------------------------------------------

TEST(TraceTest, SpanNestingTimestampsContained) {
  SimulatedTraceClock clock(1.0);
  Tracer tracer(&clock);
  {
    ScopedSpan outer(&tracer, "outer");
    {
      ScopedSpan inner(&tracer, "inner");
      inner.AddArg("items", 7);
    }
  }
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  // Spans complete innermost-first; Chrome reconstructs nesting from
  // timestamp containment.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  const auto& inner = events[0];
  const auto& outer = events[1];
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  ASSERT_EQ(inner.args.size(), 1u);
  EXPECT_EQ(inner.args[0].first, "items");
  EXPECT_EQ(inner.args[0].second, 7);
}

TEST(TraceTest, SimulatedClockMakesTraceBytesReproducible) {
  auto record = [] {
    SimulatedTraceClock clock(2.0);
    Tracer tracer(&clock);
    {
      ScopedSpan a(&tracer, "phase.a");
      a.AddArg("n", 3);
      ScopedSpan b(&tracer, "phase.b");
    }
    { ScopedSpan c(&tracer, "phase.c"); }
    return tracer.ToChromeJson();
  };
  // Two identical runs must serialize to identical bytes — the property
  // the cli_obs_deterministic ctest asserts end to end.
  const std::string first = record();
  const std::string second = record();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"phase.a\""), std::string::npos);
  EXPECT_NE(first.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(first.find("\"args\":{\"n\":3}"), std::string::npos);
}

TEST(TraceTest, NullTracerSpansAreNoOps) {
  ScopedSpan span(nullptr, "ghost");
  span.AddArg("ignored", 1);  // Must not crash.
}

TEST(TraceTest, ClearDropsRecordedEvents) {
  SimulatedTraceClock clock;
  Tracer tracer(&clock);
  { ScopedSpan span(&tracer, "once"); }
  EXPECT_EQ(tracer.Events().size(), 1u);
  tracer.Clear();
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(TraceTest, PerThreadBuffersCollectAllSpans) {
  SimulatedTraceClock clock;
  Tracer tracer(&clock);
  {
    ThreadPool pool(4);
    for (int i = 0; i < 32; ++i) {
      pool.Schedule([&tracer] { ScopedSpan span(&tracer, "task"); });
    }
    pool.Wait();
  }
  EXPECT_EQ(tracer.Events().size(), 32u);
}

// --- JSON escaping -----------------------------------------------------------

TEST(MetricsTest, JsonEscapesHostileMetricNames) {
  // Metric names come from schema-derived strings in some callers, so
  // quotes, backslashes, and control bytes must all survive
  // serialization as valid JSON.
  MetricsRegistry registry;
  registry.GetCounter("weird\"quote").Increment(1);
  registry.GetCounter("back\\slash").Increment(2);
  registry.GetGauge(std::string("ctl\x01" "char")).Set(3.0);
  const std::string json = obs::SnapshotToJsonString(registry.Snapshot());
  EXPECT_NE(json.find("\"weird\\\"quote\":1"), std::string::npos);
  EXPECT_NE(json.find("\"back\\\\slash\":2"), std::string::npos);
  EXPECT_NE(json.find("ctl\\u0001char"), std::string::npos);
  // No raw quote-breaking or control byte survives into the document.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
}

TEST(TraceTest, JsonEscapesHostileSpanAndArgNames) {
  SimulatedTraceClock clock;
  Tracer tracer(&clock);
  tracer.set_process_name("proc \"zero\"");
  {
    ScopedSpan span(&tracer, "span\"with\\newline\n");
    span.AddArg("arg\"key", 7);
  }
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"span\\\"with\\\\newline\\n\""), std::string::npos);
  EXPECT_NE(json.find("\"arg\\\"key\":7"), std::string::npos);
  EXPECT_NE(json.find("\"proc \\\"zero\\\"\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

// --- Metadata events and span ids --------------------------------------------

TEST(TraceTest, MetadataEventsNameProcessAndThreads) {
  SimulatedTraceClock clock;
  Tracer tracer(&clock);
  tracer.set_process_name("coordinator");
  tracer.NameThisThread("driver");
  { ScopedSpan span(&tracer, "phase"); }
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":0,\"args\":{\"name\":\"coordinator\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":0,\"args\":{\"name\":\"driver\"}}"),
            std::string::npos);
}

TEST(TraceTest, UnnamedThreadsGetDefaultLabels) {
  SimulatedTraceClock clock;
  Tracer tracer(&clock);
  { ScopedSpan span(&tracer, "main.work"); }
  std::thread([&tracer] { ScopedSpan span(&tracer, "side.work"); }).join();
  const std::vector<std::string> names = tracer.ThreadNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "main");
  EXPECT_EQ(names[1], "thread-1");
}

TEST(TraceTest, SpanIdsSerializedOnlyForDistributedTraces) {
  SimulatedTraceClock clock;
  Tracer tracer(&clock);
  { ScopedSpan span(&tracer, "solo"); }
  // Single-process traces (trace id 0) stay free of span id noise.
  EXPECT_EQ(tracer.ToChromeJson().find("span_id"), std::string::npos);

  tracer.set_trace_id(42);
  uint64_t parent_id = 0;
  {
    ScopedSpan parent(&tracer, "parent");
    parent_id = parent.id();
    EXPECT_NE(parent_id, 0u);
    ScopedSpan child(&tracer, "child");
    child.set_parent(parent_id);
  }
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"trace_id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":"), std::string::npos);
  EXPECT_NE(json.find(StrFormat("\"parent_span_id\":%llu",
                                static_cast<unsigned long long>(parent_id))),
            std::string::npos);
}

TEST(TraceTest, MergedTraceCoversEveryProcess) {
  auto merge = [] {
    obs::ProcessTrace coordinator;
    coordinator.pid = 0;
    coordinator.name = "coordinator";
    coordinator.trace_id = 99;
    coordinator.thread_names = {"main"};
    obs::TraceEvent rpc;
    rpc.name = "rpc.assign";
    rpc.ts_us = 1.0;
    rpc.dur_us = 4.0;
    rpc.span_id = 1;
    coordinator.events.push_back(rpc);

    obs::ProcessTrace worker;
    worker.pid = 1;
    worker.name = "worker.0";
    worker.trace_id = 99;
    worker.thread_names = {"assign", "assess"};
    obs::TraceEvent fit;
    fit.name = "worker.assign";
    fit.ts_us = 2.0;
    fit.dur_us = 1.0;
    fit.span_id = 1;
    fit.parent_span_id = 1;  // The coordinator's rpc.assign span.
    worker.events.push_back(fit);
    return obs::MergedTraceToChromeJson({coordinator, worker});
  };
  const std::string json = merge();
  // Identical inputs serialize byte-identically (the property the
  // distributed quorum harness compares across repeat runs).
  EXPECT_EQ(json, merge());
  EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
                      "\"tid\":0,\"args\":{\"name\":\"coordinator\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":0,\"args\":{\"name\":\"worker.0\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":1,\"args\":{\"name\":\"assess\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker.assign\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\":1"), std::string::npos);
  // One run-level trace id at the top of the document.
  EXPECT_NE(json.find("\"trace_id\":99"), std::string::npos);
}

// --- Merged metrics ----------------------------------------------------------

TEST(MetricsTest, MergePrefixedNamespacesAndResorts) {
  MetricsRegistry coordinator;
  coordinator.GetCounter("net.bytes_sent.assign").Increment(10);
  coordinator.GetCounter("zebra").Increment(1);
  MetricsRegistry worker;
  worker.GetCounter("exchange.fetches").Increment(3);
  worker.GetGauge("queue.depth").Set(2.0);
  worker.GetHistogram("lat", {1.0}).Observe(0.5);

  obs::MetricsSnapshot merged = coordinator.Snapshot();
  obs::MergePrefixed(merged, "worker.0.", worker.Snapshot());

  ASSERT_EQ(merged.counters.size(), 3u);
  // Re-sorted by name so serialization stays canonical.
  EXPECT_EQ(merged.counters[0].first, "net.bytes_sent.assign");
  EXPECT_EQ(merged.counters[1].first, "worker.0.exchange.fetches");
  EXPECT_EQ(merged.counters[1].second, 3u);
  EXPECT_EQ(merged.counters[2].first, "zebra");
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_EQ(merged.gauges[0].first, "worker.0.queue.depth");
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].first, "worker.0.lat");
  EXPECT_EQ(merged.histograms[0].second.total_count, 1u);
}

// --- Flight recorder ---------------------------------------------------------

TEST(FlightRecorderTest, RecordsInSequenceOrder) {
  obs::FlightRecorder recorder(8);
  recorder.Record("rpc", "assign worker=0 ok");
  recorder.Record("fetch", "get_model publisher=1 consumer=0 attempt=0 ok");
  recorder.Record("retry", "publisher=1 consumer=0 attempt=1 fault=drop");
  const std::vector<obs::FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].kind, "rpc");
  EXPECT_EQ(events[0].detail, "assign worker=0 ok");
  EXPECT_EQ(events[1].kind, "fetch");
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_EQ(recorder.total_recorded(), 3u);
}

TEST(FlightRecorderTest, RingKeepsOnlyTheNewestEvents) {
  obs::FlightRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record("rpc", StrFormat("event=%d", i));
  }
  const std::vector<obs::FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().detail, "event=6");
  EXPECT_EQ(events.back().detail, "event=9");
  EXPECT_EQ(events.back().seq, 10u);
  EXPECT_EQ(recorder.total_recorded(), 10u);
}

TEST(FlightRecorderTest, TruncatesOversizedFields) {
  obs::FlightRecorder recorder(2);
  const std::string long_kind(100, 'k');
  const std::string long_detail(500, 'd');
  recorder.Record(long_kind, long_detail);
  const std::vector<obs::FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind.size(), obs::FlightRecorder::kMaxKindBytes);
  EXPECT_EQ(events[0].detail.size(), obs::FlightRecorder::kMaxDetailBytes);
}

TEST(FlightRecorderTest, ClearRestartsSequenceNumbers) {
  obs::FlightRecorder recorder(4);
  recorder.Record("rpc", "before");
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
  recorder.Record("rpc", "after");
  const std::vector<obs::FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].detail, "after");
}

TEST(FlightRecorderTest, ConcurrentWritersNeverTearASlot) {
  obs::FlightRecorder recorder(16);
  {
    ThreadPool pool(4);
    for (int writer = 0; writer < 4; ++writer) {
      pool.Schedule([&recorder, writer] {
        for (int i = 0; i < 1000; ++i) {
          recorder.Record("rpc", StrFormat("writer=%d i=%d", writer, i));
          // Interleaved reads must only ever see fully published slots.
          for (const obs::FlightEvent& event : recorder.Snapshot()) {
            ASSERT_EQ(event.kind, "rpc");
            ASSERT_EQ(event.detail.rfind("writer=", 0), 0u);
          }
        }
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(recorder.total_recorded(), 4000u);
  // Sequence numbers in a quiescent snapshot are strictly increasing.
  const std::vector<obs::FlightEvent> events = recorder.Snapshot();
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

// --- Exchange retry logging --------------------------------------------------

/// A transport whose fetches always fail as drops — every attempt burns
/// one retry without needing a published model.
class AlwaysDropTransport : public exchange::ModelTransport {
 public:
  Status Publish(int, std::string) override { return Status::Ok(); }
  exchange::FetchResponse Fetch(int, int, int) const override {
    exchange::FetchResponse response;
    response.status = Status::Unavailable("injected drop");
    response.latency_ms = 1.0;
    response.fault = FaultKind::kDrop;
    return response;
  }
};

TEST(ExchangeLoggingTest, EachRetryIsLoggedAtDebugLevel) {
  ScopedLogCapture capture(LogLevel::kDebug);
  AlwaysDropTransport transport;
  exchange::RetryPolicy policy;
  policy.max_attempts = 3;
  MetricsRegistry registry;
  const exchange::FetchOutcome outcome = exchange::FetchModelWithRetry(
      transport, /*publisher=*/1, /*consumer=*/0, policy,
      /*backoff_seed=*/7, &registry);
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.attempts, 3);

  const std::vector<std::string> lines = capture.sink().lines();
  // One line per retry (attempts 1 and 2 back off; attempt 3 is final)
  // plus the terminal failure line.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("exchange retry: consumer=0 publisher=1 "
                          "attempt=1/3"),
            std::string::npos);
  EXPECT_NE(lines[0].find("fault=drop"), std::string::npos);
  EXPECT_NE(lines[0].find("backoff_ms="), std::string::npos);
  EXPECT_NE(lines[1].find("attempt=2/3"), std::string::npos);
  EXPECT_NE(lines[2].find("exchange fetch failed: consumer=0 publisher=1 "
                          "attempts=3"),
            std::string::npos);

  // The same fetch fed the exchange.* instruments.
  EXPECT_EQ(registry.GetCounter("exchange.retries").value(), 2u);
  EXPECT_EQ(registry.GetCounter("exchange.fetch_failures").value(), 1u);
  EXPECT_EQ(registry.GetCounter("exchange.faults.drop").value(), 3u);
}

TEST(ExchangeLoggingTest, RetriesSilentAboveDebugLevel) {
  ScopedLogCapture capture(LogLevel::kInfo);
  AlwaysDropTransport transport;
  exchange::RetryPolicy policy;
  policy.max_attempts = 3;
  exchange::FetchModelWithRetry(transport, 1, 0, policy, 7, nullptr);
  EXPECT_EQ(capture.sink().size(), 0u);
}

}  // namespace
}  // namespace colscope
