// Resident-server tests: the scope-request codec and the health view, the
// admission controller's typed shedding, and the full daemon lifecycle
// in-process — byte-identity with a direct pipeline run, overload
// shedding, request deadlines, SIGTERM-initiated graceful drain, and a
// listener failure that drains and then fails Serve().

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "embed/hashed_encoder.h"
#include "matching/sim.h"
#include "net/rpc.h"
#include "net/socket.h"
#include "net/telemetry.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "pipeline/report.h"
#include "schema/ddl_parser.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace colscope::server {
namespace {

constexpr char kCrmDdl[] =
    "CREATE TABLE customers (customer_id INT, full_name TEXT, email TEXT,"
    " phone TEXT);"
    "CREATE TABLE invoices (invoice_id INT, customer_id INT, total REAL,"
    " issued_on TEXT);";
constexpr char kErpDdl[] =
    "CREATE TABLE clients (client_id INT, client_name TEXT, mail TEXT);"
    "CREATE TABLE orders (order_id INT, client_id INT, amount REAL);";
constexpr char kCsvText[] =
    "employee_id,employee_name,salary\n1,Ada,100\n2,Grace,200\n";

ScopeRequest MakeRequest() {
  ScopeRequest request;
  ScopeRequestSchema crm;
  crm.kind = "ddl";
  crm.name = "crm.sql";
  crm.text = kCrmDdl;
  request.schemas.push_back(crm);
  ScopeRequestSchema erp;
  erp.kind = "ddl";
  erp.name = "erp.sql";
  erp.text = kErpDdl;
  request.schemas.push_back(erp);
  return request;
}

// --- Codecs ------------------------------------------------------------------

TEST(ScopeProtocolTest, RequestRoundTripsAllFields) {
  ScopeRequest request = MakeRequest();
  ScopeRequestSchema csv;
  csv.kind = "csv";
  csv.name = "people.csv";
  csv.text = kCsvText;  // Newlines and commas must survive the tokens.
  request.schemas.push_back(csv);
  request.scoper = "global";
  request.matcher = "lsh";
  request.param = 2.0;
  request.v = 0.6;
  request.keep_portion = 0.25;
  request.deadline_ms = 1234.5;
  request.trace.trace_id = 7;
  request.trace.parent_span = 9;

  auto decoded = DecodeScopeRequest(EncodeScopeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->schemas.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded->schemas[i].kind, request.schemas[i].kind) << i;
    EXPECT_EQ(decoded->schemas[i].name, request.schemas[i].name) << i;
    EXPECT_EQ(decoded->schemas[i].text, request.schemas[i].text) << i;
  }
  EXPECT_EQ(decoded->scoper, "global");
  EXPECT_EQ(decoded->matcher, "lsh");
  EXPECT_DOUBLE_EQ(decoded->param, 2.0);
  EXPECT_DOUBLE_EQ(decoded->v, 0.6);
  EXPECT_DOUBLE_EQ(decoded->keep_portion, 0.25);
  EXPECT_DOUBLE_EQ(decoded->deadline_ms, 1234.5);
  EXPECT_EQ(decoded->trace.trace_id, 7u);
  EXPECT_EQ(decoded->trace.parent_span, 9u);
}

TEST(ScopeProtocolTest, MalformedRequestsAreTypedErrors) {
  // Every reject must be kInvalidArgument — never a crash, never an
  // unbounded allocation.
  const std::string valid = EncodeScopeRequest(MakeRequest());
  const std::vector<std::string> bad = {
      "",                                  // empty
      "not-a-header v1\nend\n",            // wrong magic
      "colscope-scope v2\nend\n",          // wrong version
      "colscope-scope v1\nend\n",          // no config, no schemas
      "colscope-scope v1\n"                // schema before config
      "schema ddl a CREATE\nend\n",
      "colscope-scope v1\n"                // bad kind
      "config pca sim -1 0.8 0.5 0\n"
      "schema pdf a text\nend\n",
      "colscope-scope v1\n"                // v out of range
      "config pca sim -1 1.5 0.5 0\n"
      "schema ddl a text\nend\n",
      valid.substr(0, valid.size() / 2),   // truncated mid-stream
  };
  for (const std::string& payload : bad) {
    auto decoded = DecodeScopeRequest(payload);
    EXPECT_FALSE(decoded.ok()) << payload;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << payload;
  }
}

TEST(ScopeProtocolTest, HealthIsAViewOverAStatsRoundTrip) {
  obs::MetricsRegistry registry;
  registry.GetGauge("server.draining").Set(1.0);
  registry.GetGauge("server.queue_depth").Set(3.0);
  registry.GetGauge("server.inflight").Set(2.0);
  registry.GetCounter("server.requests_admitted").Increment(10);
  registry.GetCounter("server.requests_shed").Increment(4);
  registry.GetCounter("server.requests_deadline_exceeded").Increment(1);
  registry.GetCounter("server.requests_completed").Increment(8);
  registry.GetCounter("server.requests_failed").Increment(2);
  registry.GetCounter("cache.hits").Increment(7);  // Not part of the view.
  net::WorkerTelemetry telemetry;
  telemetry.metrics = registry.Snapshot();
  auto stats = net::DecodeStats(net::EncodeStats(telemetry));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto health = HealthFromMetrics(stats->metrics);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, "draining");
  EXPECT_EQ(health->queue_depth, 3u);
  EXPECT_EQ(health->inflight, 2u);
  EXPECT_EQ(health->admitted, 10u);
  EXPECT_EQ(health->shed, 4u);
  EXPECT_EQ(health->deadline_exceeded, 1u);
  EXPECT_EQ(health->completed, 8u);
  EXPECT_EQ(health->failed, 2u);

  // A stats reply without the server gauges (a distributed worker's, say)
  // is not a colscoped health view.
  net::WorkerTelemetry worker;
  worker.metrics.counters.emplace_back("net.frames_sent", 3);
  auto not_a_server =
      HealthFromMetrics(net::DecodeStats(net::EncodeStats(worker))->metrics);
  EXPECT_EQ(not_a_server.status().code(), StatusCode::kInvalidArgument);
}

// --- Admission ---------------------------------------------------------------

TEST(AdmissionTest, ShedsWhenQueueIsFull) {
  AdmissionOptions options;
  options.max_queue = 1;
  options.max_inflight = 1;
  AdmissionController admission(options);
  SystemRunClock clock;

  // First request takes the slot without queueing.
  ASSERT_TRUE(admission.Admit(1, Deadline::Infinite(), nullptr).ok());
  EXPECT_EQ(admission.inflight(), 1u);

  // A second would queue; admit it from a helper thread so the queue is
  // genuinely occupied when the third arrives.
  std::atomic<bool> second_done{false};
  std::thread second([&] {
    const Status status =
        admission.Admit(1, Deadline::After(&clock, 2000.0), nullptr);
    EXPECT_TRUE(status.ok()) << status.ToString();
    second_done.store(true);
  });
  while (admission.queue_depth() == 0) {
    std::this_thread::yield();
  }

  // Queue full: the third is shed immediately with the typed code.
  const Status third = admission.Admit(1, Deadline::Infinite(), nullptr);
  EXPECT_EQ(third.code(), StatusCode::kOverloaded) << third.ToString();

  admission.Release(1);  // Frees the slot; the queued request takes it.
  second.join();
  EXPECT_TRUE(second_done.load());
  admission.Release(1);
  EXPECT_EQ(admission.inflight(), 0u);
}

TEST(AdmissionTest, ShedsWhenCostBudgetIsExceeded) {
  AdmissionOptions options;
  options.max_queue = 8;
  options.max_inflight = 8;
  options.max_cost_bytes = 100;
  AdmissionController admission(options);

  ASSERT_TRUE(admission.Admit(60, Deadline::Infinite(), nullptr).ok());
  const Status over = admission.Admit(60, Deadline::Infinite(), nullptr);
  EXPECT_EQ(over.code(), StatusCode::kOverloaded) << over.ToString();
  admission.Release(60);
  // With the budget freed the same request is admissible again.
  EXPECT_TRUE(admission.Admit(60, Deadline::Infinite(), nullptr).ok());
}

TEST(AdmissionTest, QueuedRequestHonorsDeadline) {
  AdmissionOptions options;
  options.max_queue = 4;
  options.max_inflight = 1;
  AdmissionController admission(options);
  SystemRunClock clock;

  ASSERT_TRUE(admission.Admit(1, Deadline::Infinite(), nullptr).ok());
  const Status queued =
      admission.Admit(1, Deadline::After(&clock, 50.0), nullptr);
  EXPECT_EQ(queued.code(), StatusCode::kDeadlineExceeded)
      << queued.ToString();
  // The expired request released its queue slot and cost.
  EXPECT_EQ(admission.queue_depth(), 0u);
}

TEST(AdmissionTest, QueuedRequestHonorsHardStop) {
  AdmissionOptions options;
  options.max_queue = 4;
  options.max_inflight = 1;
  AdmissionController admission(options);
  CancellationToken hard_stop;
  hard_stop.Cancel();

  ASSERT_TRUE(admission.Admit(1, Deadline::Infinite(), &hard_stop).ok());
  const Status queued =
      admission.Admit(1, Deadline::Infinite(), &hard_stop);
  EXPECT_EQ(queued.code(), StatusCode::kCancelled) << queued.ToString();
}

TEST(AdmissionTest, DrainingShedsNewArrivals) {
  AdmissionController admission(AdmissionOptions{});
  admission.BeginDrain();
  const Status status = admission.Admit(1, Deadline::Infinite(), nullptr);
  EXPECT_EQ(status.code(), StatusCode::kOverloaded) << status.ToString();
  EXPECT_TRUE(admission.draining());
}

// --- Daemon lifecycle --------------------------------------------------------

class ScopeServerTest : public ::testing::Test {
 protected:
  struct LiveServer {
    ScopeServer server;
    std::thread thread;
    net::Endpoint endpoint;
    Status serve_status = Status::Ok();
  };

  LiveServer& StartServer(ScopeServerOptions options = {}) {
    options.listen = net::Endpoint{"127.0.0.1", 0};
    auto created = ScopeServer::Create(std::move(options));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    servers_.push_back(std::make_unique<LiveServer>());
    LiveServer& live = *servers_.back();
    live.server = std::move(created).value();
    // Also clears the process-wide drain flag a previous test's SIGTERM
    // may have left set — before the serve loop starts polling it.
    live.server.InstallSignalHandlers();
    live.endpoint = net::Endpoint{"127.0.0.1", live.server.port()};
    live.thread = std::thread(
        [&live] { live.serve_status = live.server.Serve(); });
    return live;
  }

  void TearDown() override {
    for (auto& live : servers_) {
      live->server.RequestDrain();
    }
    for (auto& live : servers_) {
      if (live->thread.joinable()) live->thread.join();
    }
  }

  /// The report the cold path produces for MakeRequest(): same parsers,
  /// same defaults, fresh encoder — what the server must match byte for
  /// byte.
  std::string DirectReport() {
    std::vector<schema::Schema> schemas;
    for (const auto& [text, name] :
         {std::pair<const char*, const char*>{kCrmDdl, "crm.sql"},
          std::pair<const char*, const char*>{kErpDdl, "erp.sql"}}) {
      auto parsed = schema::ParseDdl(text, name);
      EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
      schemas.push_back(std::move(parsed).value());
    }
    schema::SchemaSet set(std::move(schemas));
    embed::HashedLexiconEncoder encoder;
    matching::SimMatcher matcher(0.6, nullptr);
    pipeline::Pipeline pipe(&encoder, pipeline::PipelineOptions{});
    auto run = pipe.Run(set, matcher);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->status.ok()) << run->status.ToString();
    return pipeline::RunToJson(*run, set);
  }

  std::vector<std::unique_ptr<LiveServer>> servers_;
};

TEST_F(ScopeServerTest, WarmAnswersByteIdenticalToDirectRun) {
  LiveServer& live = StartServer();
  const std::string expected = DirectReport();
  net::NetOptions net;
  // Twice: once cold, once against whatever state the first request left
  // resident. Both must be the exact cold-path bytes.
  for (int round = 0; round < 2; ++round) {
    auto report = RequestScope(live.endpoint, MakeRequest(), net);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(*report, expected) << "round " << round;
  }
  auto health = RequestHealth(live.endpoint, net);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, "serving");
  EXPECT_EQ(health->completed, 2u);
  EXPECT_EQ(health->admitted, 2u);
  EXPECT_EQ(health->shed, 0u);
}

TEST_F(ScopeServerTest, MalformedRequestGetsTypedErrorNotDisconnect) {
  LiveServer& live = StartServer();
  net::NetOptions net;
  ScopeRequest request = MakeRequest();
  request.schemas[0].text = "NOT DDL AT ALL ((((";
  auto report = RequestScope(live.endpoint, request, net);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument)
      << report.status().ToString();
  // The daemon is still healthy afterwards.
  auto health = RequestHealth(live.endpoint, net);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->failed, 1u);
}

TEST_F(ScopeServerTest, OverloadShedsWithTypedStatus) {
  ScopeServerOptions options;
  options.max_inflight = 1;
  options.max_queue = 1;
  options.serve_delay_ms = 400.0;
  LiveServer& live = StartServer(options);

  constexpr int kClients = 4;
  std::vector<Status> results(kClients, Status::Ok());
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&live, &results, i] {
      net::NetOptions net;
      auto report = RequestScope(live.endpoint, MakeRequest(), net);
      results[static_cast<size_t>(i)] = report.status();
    });
  }
  for (std::thread& client : clients) client.join();

  int ok = 0, shed = 0;
  for (const Status& status : results) {
    if (status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(status.code(), StatusCode::kOverloaded) << status.ToString();
      ++shed;
    }
  }
  // One slot + one queue entry: at least one served, at least one shed.
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(ok + shed, kClients);

  net::NetOptions net;
  auto health = RequestHealth(live.endpoint, net);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->shed, static_cast<uint64_t>(shed));
  EXPECT_EQ(health->completed, static_cast<uint64_t>(ok));
}

TEST_F(ScopeServerTest, RequestDeadlineProducesTypedTimeout) {
  ScopeServerOptions options;
  options.serve_delay_ms = 300.0;
  LiveServer& live = StartServer(options);
  ScopeRequest request = MakeRequest();
  request.deadline_ms = 50.0;  // Expires inside the execution delay.
  net::NetOptions net;
  auto report = RequestScope(live.endpoint, request, net);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded)
      << report.status().ToString();
  auto health = RequestHealth(live.endpoint, net);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->deadline_exceeded, 1u);
  EXPECT_EQ(health->completed, 0u);
}

TEST_F(ScopeServerTest, SigtermDrainsInFlightWorkThenStops) {
  ScopeServerOptions options;
  options.serve_delay_ms = 400.0;
  options.drain_grace_ms = 5000.0;
  LiveServer& live = StartServer(options);
  live.server.InstallSignalHandlers();
  const std::string expected = DirectReport();

  // An in-flight request, mid-execution when the signal lands.
  std::thread inflight([&live, &expected] {
    net::NetOptions net;
    auto report = RequestScope(live.endpoint, MakeRequest(), net);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(*report, expected);
  });
  // Wait until the request is admitted, then deliver SIGTERM.
  for (int i = 0; i < 200 && live.server.Health().inflight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(live.server.Health().inflight, 1u);
  std::raise(SIGTERM);

  // The serve loop exits cleanly after the in-flight request completed.
  live.thread.join();
  EXPECT_TRUE(live.serve_status.ok()) << live.serve_status.ToString();
  inflight.join();
  const HealthInfo health = live.server.Health();
  EXPECT_EQ(health.state, "draining");
  EXPECT_EQ(health.completed, 1u);
  EXPECT_EQ(health.inflight, 0u);

  // The listener is gone: a post-drain request cannot be served.
  net::NetOptions net;
  net.connect_timeout_ms = 500.0;
  auto late = RequestScope(live.endpoint, MakeRequest(), net);
  EXPECT_FALSE(late.ok());
}

TEST_F(ScopeServerTest, StatsRequestGetsTheWorkerTelemetryReply) {
  LiveServer& live = StartServer();
  net::NetOptions net;
  ASSERT_TRUE(RequestScope(live.endpoint, MakeRequest(), net).ok());
  // The same colscope-stats v1 reply a distributed worker sends; health
  // is read from it.
  auto reply =
      net::Call(live.endpoint, net::FrameType::kStatsRequest, "", net);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, net::FrameType::kStats);
  auto stats = net::DecodeStats(reply->payload);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto health = HealthFromMetrics(stats->metrics);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, "serving");
  EXPECT_EQ(health->completed, 1u);
  EXPECT_EQ(health->inflight, 0u);
  const HealthInfo local = live.server.Health();
  EXPECT_EQ(local.state, health->state);
  EXPECT_EQ(local.completed, health->completed);
  EXPECT_EQ(local.admitted, health->admitted);
}

/// Restores the process's descriptor limit when it goes out of scope.
class ScopedFdLimit {
 public:
  ScopedFdLimit() { getrlimit(RLIMIT_NOFILE, &saved_); }
  ~ScopedFdLimit() { setrlimit(RLIMIT_NOFILE, &saved_); }
  bool Lower(rlim_t soft) {
    struct rlimit tight = saved_;
    tight.rlim_cur = soft;
    return setrlimit(RLIMIT_NOFILE, &tight) == 0;
  }

 private:
  struct rlimit saved_ {};
};

TEST_F(ScopeServerTest, ListenerFailureDrainsThenFailsServe) {
  LiveServer& live = StartServer();
  net::NetOptions net;
  net.connect_timeout_ms = 2000.0;
  net.io_timeout_ms = 5000.0;
  {
    // Leave exactly one free descriptor: the client's socket takes it,
    // so the server's accept() of that connection fails with EMFILE.
    const int probe = open("/dev/null", O_RDONLY);
    ASSERT_GE(probe, 0);
    close(probe);
    ScopedFdLimit limit;
    ASSERT_TRUE(limit.Lower(static_cast<rlim_t>(probe) + 1));
    EXPECT_FALSE(RequestHealth(live.endpoint, net).ok());
    live.thread.join();
  }
  // Serve() drained (the listener is closed, nothing is left running)
  // and then reported the listener's failure instead of Ok.
  EXPECT_FALSE(live.serve_status.ok());
  EXPECT_EQ(live.serve_status.code(), StatusCode::kUnavailable)
      << live.serve_status.ToString();
  EXPECT_EQ(live.server.Health().state, "draining");
  net.connect_timeout_ms = 500.0;
  EXPECT_FALSE(RequestHealth(live.endpoint, net).ok());
}

TEST_F(ScopeServerTest, ShutdownRpcDrainsLikeSigterm) {
  LiveServer& live = StartServer();
  net::NetOptions net;
  ASSERT_TRUE(RequestShutdown(live.endpoint, net).ok());
  live.thread.join();
  EXPECT_TRUE(live.serve_status.ok()) << live.serve_status.ToString();
  EXPECT_EQ(live.server.Health().state, "draining");
}

}  // namespace
}  // namespace colscope::server
