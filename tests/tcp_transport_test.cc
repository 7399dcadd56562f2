// Socket-level tests of the distributed exchange: TcpTransport against a
// live WorkerServer in this process — byte-identical model round trips,
// the socket fault taxonomy (refused connect, mid-frame truncation,
// corruption under an honest checksum, staleness), ephemeral-port
// binding with the port file, cancellation of blocked I/O, fetch records
// identical to the in-memory exchange's, and Pipeline::Run with its
// keep_mask phase on live workers.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <list>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injector.h"
#include "datasets/toy.h"
#include "embed/hashed_encoder.h"
#include "exchange/exchange.h"
#include "matching/matcher.h"
#include "net/coordinator.h"
#include "net/protocol.h"
#include "net/rpc.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "net/telemetry.h"
#include "net/worker.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "scoping/model_io.h"
#include "scoping/signatures.h"

namespace colscope::net {
namespace {

using exchange::FetchModelWithRetry;
using exchange::RetryPolicy;

// One in-process worker serving the toy scenario's schemas, plus the
// plumbing to assign it a shard and point a TcpTransport at it.
class TcpTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = datasets::BuildToyScenario();
    signatures_ = scoping::BuildSignatures(scenario_.set, encoder_);
    num_schemas_ = scenario_.set.num_schemas();
  }

  void TearDown() override {
    for (auto& worker : workers_) {
      worker.server.RequestStop();
    }
    for (auto& worker : workers_) {
      if (worker.thread.joinable()) worker.thread.join();
    }
  }

  struct LiveWorker {
    WorkerServer server;
    std::thread thread;
    Endpoint endpoint;
  };

  // Starts a worker on an ephemeral port and begins serving.
  LiveWorker& StartWorker(WorkerOptions options = {}) {
    options.listen = Endpoint{"127.0.0.1", 0};
    auto server = WorkerServer::Create(&signatures_, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    workers_.push_back(LiveWorker{std::move(server).value(), {}, {}});
    LiveWorker& worker = workers_.back();
    worker.endpoint = Endpoint{"127.0.0.1", worker.server.port()};
    worker.thread = std::thread([&worker] { (void)worker.server.Serve(); });
    return worker;
  }

  // Ships `worker` an assignment covering every schema, with the given
  // fault profile applied server-side to kGetModel.
  void Assign(const LiveWorker& worker, const FaultProfile& faults) {
    AssignConfig config;
    config.num_schemas = num_schemas_;
    config.v = 0.8;
    config.faults = faults;
    for (size_t i = 0; i < num_schemas_; ++i) {
      config.shard.push_back(static_cast<int>(i));
      config.owners[static_cast<int>(i)] = worker.endpoint;
    }
    NetOptions net;
    auto socket = Socket::Connect(worker.endpoint, net);
    ASSERT_TRUE(socket.ok()) << socket.status().ToString();
    ASSERT_TRUE(socket->SendFrame(FrameType::kAssign, EncodeAssign(config),
                                  net)
                    .ok());
    auto ack = socket->RecvFrame(net);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_EQ(ack->type, FrameType::kAssignAck);
  }

  // A transport whose every schema is owned by `worker` (nothing local).
  TcpTransport RemoteTransport(const LiveWorker& worker,
                               const FaultProfile& faults = {},
                               NetOptions net = {}) {
    std::map<int, Endpoint> owners;
    for (size_t i = 0; i < num_schemas_; ++i) {
      owners[static_cast<int>(i)] = worker.endpoint;
    }
    return TcpTransport(std::move(owners), FaultInjector(faults), net);
  }

  std::string ExpectedModel(int schema) {
    auto model = scoping::LocalModel::Fit(
        signatures_.SchemaSignatures(static_cast<size_t>(schema)), 0.8,
        schema);
    EXPECT_TRUE(model.ok());
    return scoping::SerializeLocalModel(*model);
  }

  embed::HashedLexiconEncoder encoder_;
  datasets::MatchingScenario scenario_;
  scoping::SignatureSet signatures_;
  size_t num_schemas_ = 0;
  // A list: serving threads hold references to their LiveWorker, which
  // must stay put while later workers start.
  std::list<LiveWorker> workers_;
};

TEST_F(TcpTransportTest, EphemeralPortAndPortFile) {
  const std::string port_file =
      ::testing::TempDir() + "/tcp_transport_test.port";
  WorkerOptions options;
  options.port_file = port_file;
  LiveWorker& worker = StartWorker(options);
  EXPECT_NE(worker.server.port(), 0);

  // The harness plumbing: the real port is readable from the file.
  std::ifstream in(port_file);
  ASSERT_TRUE(in.good());
  int port = 0;
  in >> port;
  EXPECT_EQ(port, worker.server.port());
}

TEST_F(TcpTransportTest, RemoteFetchByteIdenticalToInMemoryPayload) {
  LiveWorker& worker = StartWorker();
  Assign(worker, FaultProfile{});
  TcpTransport transport = RemoteTransport(worker);

  for (size_t schema = 0; schema < num_schemas_; ++schema) {
    const auto response = transport.Fetch(static_cast<int>(schema), 0, 0);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.fault, FaultKind::kNone);
    // The wire payload is byte-identical to what the in-memory transport
    // would deliver: the hardened serialization of the fitted model.
    EXPECT_EQ(response.payload, ExpectedModel(static_cast<int>(schema)));
    // And it deserializes cleanly at the receiver.
    EXPECT_TRUE(scoping::DeserializeLocalModel(response.payload).ok());
  }
}

TEST_F(TcpTransportTest, LocalPublishersNeverCrossTheSocket) {
  // No worker at this endpoint: any remote fetch would drop. Published
  // (local) schemas must still be served, through the embedded in-memory
  // transport.
  std::map<int, Endpoint> owners;
  for (size_t i = 0; i < num_schemas_; ++i) {
    owners[static_cast<int>(i)] = Endpoint{"127.0.0.1", 1};
  }
  TcpTransport transport(owners, FaultInjector(FaultProfile{}), NetOptions{});
  const std::string model = ExpectedModel(0);
  ASSERT_TRUE(transport.Publish(0, model).ok());

  const auto local = transport.Fetch(0, 1, 0);
  ASSERT_TRUE(local.status.ok());
  EXPECT_EQ(local.payload, model);

  const auto remote = transport.Fetch(1, 0, 0);
  EXPECT_FALSE(remote.status.ok());
  EXPECT_EQ(remote.fault, FaultKind::kDrop);
}

TEST_F(TcpTransportTest, UnownedSchemaIsNotFound) {
  TcpTransport transport({}, FaultInjector(FaultProfile{}), NetOptions{});
  const auto response = transport.Fetch(7, 0, 0);
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
}

TEST_F(TcpTransportTest, RefusedConnectClassifiedAsDrop) {
  LiveWorker& worker = StartWorker();
  Assign(worker, FaultProfile{});
  // Point the transport at a port nobody listens on.
  std::map<int, Endpoint> owners;
  owners[0] = Endpoint{"127.0.0.1", 1};
  NetOptions net;
  net.connect_timeout_ms = 500.0;
  TcpTransport transport(owners, FaultInjector(FaultProfile{}), net);
  const auto response = transport.Fetch(0, 1, 0);
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(response.fault, FaultKind::kDrop);
}

TEST_F(TcpTransportTest, ServerSideDropFault) {
  LiveWorker& worker = StartWorker();
  FaultProfile faults;
  faults.drop_probability = 1.0;
  Assign(worker, faults);
  TcpTransport transport = RemoteTransport(worker);

  const auto response = transport.Fetch(0, 1, 0);
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.fault, FaultKind::kDrop);
}

TEST_F(TcpTransportTest, ServerSideTruncationFault) {
  LiveWorker& worker = StartWorker();
  FaultProfile faults;
  faults.truncate_probability = 1.0;
  Assign(worker, faults);
  TcpTransport transport = RemoteTransport(worker);

  // The worker sends a strict prefix of the encoded frame, then closes:
  // the transport sees a mid-frame EOF and classifies it kTruncate. No
  // allocation blowup — the header's length field was validated first.
  const auto response = transport.Fetch(0, 1, 0);
  EXPECT_FALSE(response.status.ok());
  EXPECT_TRUE(response.fault == FaultKind::kTruncate ||
              response.fault == FaultKind::kDrop)
      << FaultKindToString(response.fault);
}

TEST_F(TcpTransportTest, ServerSideCorruptionSurvivesTheWireButNotParsing) {
  LiveWorker& worker = StartWorker();
  FaultProfile faults;
  faults.corrupt_probability = 1.0;
  Assign(worker, faults);
  TcpTransport transport = RemoteTransport(worker);

  // Corruption under an honest checksum: the frame layer accepts it (the
  // checksum covers the corrupted bytes), exactly like the in-memory
  // transport, and the receiver detects it by parsing.
  const auto response = transport.Fetch(0, 1, 0);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_NE(response.payload, ExpectedModel(0));
  EXPECT_FALSE(scoping::DeserializeLocalModel(response.payload).ok());
}

TEST_F(TcpTransportTest, RetryLoopRecoversOverTcpLikeInMemory) {
  LiveWorker& worker = StartWorker();
  FaultProfile faults;
  faults.drop_probability = 0.5;
  faults.seed = 11;
  Assign(worker, faults);
  TcpTransport transport = RemoteTransport(worker, faults);

  RetryPolicy policy;
  policy.max_attempts = 8;
  const auto outcome = FetchModelWithRetry(transport, 0, 1, policy, 11);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(scoping::SerializeLocalModel(*outcome.model), ExpectedModel(0));
}

TEST_F(TcpTransportTest, CancelledTokenAbortsFetch) {
  LiveWorker& worker = StartWorker();
  Assign(worker, FaultProfile{});
  CancellationToken cancel;
  cancel.Cancel();
  NetOptions net;
  net.cancel = &cancel;
  TcpTransport transport = RemoteTransport(worker, FaultProfile{}, net);
  const auto response = transport.Fetch(0, 1, 0);
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
}

TEST_F(TcpTransportTest, ExpiredDeadlineAbortsFetch) {
  LiveWorker& worker = StartWorker();
  Assign(worker, FaultProfile{});
  SystemRunClock clock;
  NetOptions net;
  net.deadline = Deadline::After(&clock, 0.0);
  TcpTransport transport = RemoteTransport(worker, FaultProfile{}, net);
  const auto response = transport.Fetch(0, 1, 0);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
}

TEST_F(TcpTransportTest, AssessConsumerMatchesSingleProcessRun) {
  LiveWorker& worker = StartWorker();
  FaultProfile faults;
  faults.drop_probability = 0.3;
  faults.seed = 42;
  Assign(worker, faults);
  TcpTransport tcp = RemoteTransport(worker, faults);

  // The same consumer assessed over the in-memory transport with the
  // same fault stream must produce identical keep bits and identical
  // per-fetch fault sequences — the equivalence the distributed report
  // guarantee rests on.
  exchange::InMemoryTransport memory{FaultInjector(faults)};
  for (size_t i = 0; i < num_schemas_; ++i) {
    ASSERT_TRUE(
        memory
            .Publish(static_cast<int>(i), ExpectedModel(static_cast<int>(i)))
            .ok());
  }

  AssignConfig run;
  run.num_schemas = num_schemas_;
  run.faults = faults;
  run.degraded.policy = scoping::DegradedPolicy::kKeepAll;
  std::vector<exchange::PeerFetchRecord> tcp_fetches, memory_fetches;
  const ConsumerPartial over_tcp = AssessConsumerOverTransport(
      signatures_, /*consumer=*/1, run, tcp, tcp_fetches);
  const ConsumerPartial over_memory = AssessConsumerOverTransport(
      signatures_, /*consumer=*/1, run, memory, memory_fetches);

  EXPECT_EQ(over_tcp.ok, over_memory.ok);
  EXPECT_EQ(over_tcp.arrived, over_memory.arrived);
  EXPECT_EQ(over_tcp.bits, over_memory.bits);
  ASSERT_EQ(tcp_fetches.size(), memory_fetches.size());
  for (size_t i = 0; i < tcp_fetches.size(); ++i) {
    EXPECT_EQ(tcp_fetches[i].ok, memory_fetches[i].ok) << i;
    EXPECT_EQ(tcp_fetches[i].attempts, memory_fetches[i].attempts) << i;
    EXPECT_EQ(tcp_fetches[i].faults, memory_fetches[i].faults) << i;
  }
}

// --- Partition fault injection -----------------------------------------------

TEST_F(TcpTransportTest, PartitionedPublisherClassifiedAsPartition) {
  // Bound the worker-side stall so the handler thread self-terminates.
  WorkerOptions options;
  options.net.io_timeout_ms = 2000.0;
  LiveWorker& worker = StartWorker(options);
  FaultProfile faults;
  faults.partition_from = 0;
  Assign(worker, faults);
  NetOptions net;
  net.io_timeout_ms = 300.0;
  TcpTransport transport = RemoteTransport(worker, FaultProfile{}, net);

  // The connection is accepted and the request sent; the reply never
  // comes. Distinct from a crash (refused connect) and from a drop
  // (clean close): with the run deadline intact, the io timeout
  // classifies as a partitioned peer — kUnavailable (so the retry loop
  // treats it as transient) tagged kPartition.
  const auto response = transport.Fetch(0, 1, 0);
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(response.fault, FaultKind::kPartition)
      << FaultKindToString(response.fault);

  // The partition is per-publisher: the same worker still serves its
  // other schemas on fresh connections.
  const auto healthy = transport.Fetch(1, 0, 0);
  ASSERT_TRUE(healthy.status.ok()) << healthy.status.ToString();
  EXPECT_EQ(healthy.payload, ExpectedModel(1));
}

TEST_F(TcpTransportTest, PartitionStallUnderRunDeadlineStaysDeadline) {
  WorkerOptions options;
  options.net.io_timeout_ms = 2000.0;
  LiveWorker& worker = StartWorker(options);
  FaultProfile faults;
  faults.partition_from = 0;
  Assign(worker, faults);
  SystemRunClock clock;
  NetOptions net;
  net.io_timeout_ms = 5000.0;
  net.deadline = Deadline::After(&clock, 150.0);
  TcpTransport transport = RemoteTransport(worker, FaultProfile{}, net);

  // When the *run's* budget (not the per-frame io timeout) expires during
  // the stall, the verdict must stay kDeadlineExceeded — retrying a
  // fetch whose run is out of time would be lying to the retry loop.
  const auto response = transport.Fetch(0, 1, 0);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(response.fault, FaultKind::kPartition);
}

TEST_F(TcpTransportTest, QuorumSurvivesPartitionedPublisher) {
  WorkerOptions options;
  options.net.io_timeout_ms = 2000.0;
  LiveWorker& worker = StartWorker(options);
  FaultProfile faults;
  faults.partition_from = 0;
  Assign(worker, faults);
  NetOptions net;
  net.io_timeout_ms = 250.0;
  TcpTransport transport = RemoteTransport(worker, FaultProfile{}, net);

  AssignConfig run;
  run.num_schemas = num_schemas_;
  run.retry.max_attempts = 2;
  run.degraded.policy = scoping::DegradedPolicy::kQuorum;
  run.degraded.quorum = 1;
  std::vector<exchange::PeerFetchRecord> fetches;
  const ConsumerPartial partial = AssessConsumerOverTransport(
      signatures_, /*consumer=*/1, run, transport, fetches);

  // Every publisher except the partitioned one arrived, so quorum:1 is
  // met and the consumer assesses against the models it did get.
  EXPECT_TRUE(partial.ok) << partial.error;
  EXPECT_EQ(partial.arrived, num_schemas_ - 2);  // minus self, minus 0.
  size_t consumer_elements = 0;
  for (const schema::ElementRef& ref : signatures_.refs) {
    if (ref.schema == 1) ++consumer_elements;
  }
  EXPECT_EQ(partial.bits.size(), consumer_elements);

  // The fetch record for the partitioned publisher shows the retries and
  // names the fault kind the report's degradation block will echo.
  bool saw_partitioned_fetch = false;
  for (const auto& record : fetches) {
    if (record.publisher != 0) {
      EXPECT_TRUE(record.ok) << record.error;
      continue;
    }
    saw_partitioned_fetch = true;
    EXPECT_FALSE(record.ok);
    EXPECT_EQ(record.attempts, run.retry.max_attempts);
    ASSERT_FALSE(record.faults.empty());
    for (const FaultKind kind : record.faults) {
      EXPECT_EQ(kind, FaultKind::kPartition) << FaultKindToString(kind);
    }
  }
  EXPECT_TRUE(saw_partitioned_fetch);
}

// --- Distributed telemetry ---------------------------------------------------

/// Finds a counter by name in a snapshot; 0 when absent.
uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& [counter_name, value] : snapshot.counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

bool HasHistogram(const obs::MetricsSnapshot& snapshot,
                  const std::string& name) {
  for (const auto& [histogram_name, unused] : snapshot.histograms) {
    if (histogram_name == name) return true;
  }
  return false;
}

TEST_F(TcpTransportTest, TelemetryHarvestAndTracePropagation) {
  // Worker side: its own registry, tracer, and simulated clock — what
  // `--role worker --trace-clock sim` wires up.
  obs::MetricsRegistry worker_registry;
  obs::SimulatedTraceClock worker_clock;
  obs::Tracer worker_tracer(&worker_clock);
  WorkerOptions worker_options;
  worker_options.net.metrics = &worker_registry;
  worker_options.net.tracer = &worker_tracer;
  worker_options.net.clock = &worker_clock;
  LiveWorker& worker = StartWorker(worker_options);

  // Coordinator side, with a nonzero run trace id.
  obs::MetricsRegistry coord_registry;
  obs::SimulatedTraceClock coord_clock;
  obs::Tracer coord_tracer(&coord_clock);
  coord_tracer.set_trace_id(777);
  const std::vector<Endpoint> workers = {worker.endpoint};
  AssignConfig run;
  run.degraded.policy = scoping::DegradedPolicy::kKeepAll;
  NetOptions net;
  net.metrics = &coord_registry;
  net.tracer = &coord_tracer;
  net.clock = &coord_clock;

  auto scoped = DistributedScope(signatures_, num_schemas_, workers, run, net);
  ASSERT_TRUE(scoped.ok()) << scoped.status().ToString();
  ShutdownWorkers(workers, net);
  for (auto& live : workers_) {
    if (live.thread.joinable()) live.thread.join();
  }

  // The harvest delivered one telemetry blob, carrying the run trace id
  // the kAssign frame propagated.
  ASSERT_EQ(scoped->workers.telemetry.size(), 1u);
  ASSERT_TRUE(scoped->workers.telemetry[0].has_value());
  const WorkerTelemetry& telemetry = *scoped->workers.telemetry[0];
  EXPECT_EQ(telemetry.trace_id, 777u);

  // The worker's handler threads registered under their protocol names.
  ASSERT_GE(telemetry.thread_names.size(), 2u);
  EXPECT_EQ(telemetry.thread_names[0], "assign");
  EXPECT_EQ(telemetry.thread_names[1], "assess");

  // Worker spans parent under the coordinator's RPC spans: the
  // worker.assign span's parent id is the rpc.assign span's id.
  const auto coord_events = coord_tracer.Events();
  uint64_t rpc_assign_span = 0;
  for (const auto& event : coord_events) {
    if (event.name == "rpc.assign") rpc_assign_span = event.span_id;
  }
  ASSERT_NE(rpc_assign_span, 0u);
  bool saw_worker_assign = false, saw_worker_assess = false;
  for (const auto& event : telemetry.events) {
    if (event.name == "worker.assign") {
      saw_worker_assign = true;
      EXPECT_EQ(event.parent_span_id, rpc_assign_span);
    }
    if (event.name == "worker.assess") saw_worker_assess = true;
  }
  EXPECT_TRUE(saw_worker_assign);
  EXPECT_TRUE(saw_worker_assess);

  // Client-side RPC latency histograms and per-type byte counters landed
  // on the coordinator...
  const auto coord_snapshot = coord_registry.Snapshot();
  EXPECT_TRUE(HasHistogram(coord_snapshot, "net.rpc_ms.assign"));
  EXPECT_TRUE(HasHistogram(coord_snapshot, "net.rpc_ms.assess"));
  EXPECT_TRUE(HasHistogram(coord_snapshot, "net.rpc_ms.stats_request"));
  EXPECT_GT(CounterValue(coord_snapshot, "net.bytes_sent.assign"), 0u);
  EXPECT_GT(CounterValue(coord_snapshot, "net.bytes_received.assign_ack"),
            0u);
  EXPECT_GT(CounterValue(coord_snapshot, "net.bytes_received.partial"), 0u);
  // ...and the harvested worker snapshot counted its serving side.
  EXPECT_GT(CounterValue(telemetry.metrics, "net.bytes_received.assign"),
            0u);
  EXPECT_GT(CounterValue(telemetry.metrics, "net.bytes_sent.partial"), 0u);
  EXPECT_GT(CounterValue(telemetry.metrics, "exchange.fetches"), 0u);
}

TEST_F(TcpTransportTest, DeadWorkerLeavesTelemetryHoleNotError) {
  obs::FlightRecorder::Global().Clear();
  LiveWorker& alive = StartWorker();
  // Worker 1 is an endpoint nobody listens on: lost at assignment.
  const std::vector<Endpoint> workers = {alive.endpoint,
                                         Endpoint{"127.0.0.1", 1}};
  AssignConfig run;
  run.degraded.policy = scoping::DegradedPolicy::kKeepAll;
  NetOptions net;
  net.connect_timeout_ms = 500.0;

  auto scoped = DistributedScope(signatures_, num_schemas_, workers, run, net);
  ASSERT_TRUE(scoped.ok()) << scoped.status().ToString();
  ShutdownWorkers(workers, net);
  for (auto& live : workers_) {
    if (live.thread.joinable()) live.thread.join();
  }

  EXPECT_EQ(scoped->workers.lost_workers, (std::vector<size_t>{1}));
  ASSERT_EQ(scoped->workers.telemetry.size(), 2u);
  EXPECT_TRUE(scoped->workers.telemetry[0].has_value());
  EXPECT_FALSE(scoped->workers.telemetry[1].has_value());

  // The flight recorder named the dead worker at every round it missed.
  bool saw_lost_assign = false, saw_stats_hole = false;
  for (const auto& event : obs::FlightRecorder::Global().Snapshot()) {
    if (event.kind != "rpc") continue;
    if (event.detail.rfind("assign worker=1 ", 0) == 0 &&
        event.detail.find(" ok") == std::string::npos) {
      saw_lost_assign = true;
    }
    if (event.detail == "stats worker=1 hole") saw_stats_hole = true;
  }
  EXPECT_TRUE(saw_lost_assign);
  EXPECT_TRUE(saw_stats_hole);
}

// --- One fetch-and-record step ----------------------------------------------

/// Consumer 1's fetch records over `tcp`, and over an in-memory exchange
/// of the same models, under the same cancel token and run deadline —
/// compared field for field.
void ExpectRecordsMatchInMemory(
    const scoping::SignatureSet& signatures, size_t num_schemas,
    const TcpTransport& tcp, const CancellationToken* cancel,
    Deadline run_deadline) {
  AssignConfig run;
  run.num_schemas = num_schemas;
  run.degraded.policy = scoping::DegradedPolicy::kKeepAll;
  NetOptions net;
  net.cancel = cancel;
  net.deadline = run_deadline;
  std::vector<exchange::PeerFetchRecord> over_tcp;
  (void)AssessConsumerOverTransport(signatures, /*consumer=*/1, run, tcp,
                                    over_tcp, net);

  auto models = scoping::FitLocalModels(signatures, num_schemas, 0.8);
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  exchange::InMemoryTransport memory{FaultInjector(FaultProfile{})};
  auto exchanged = exchange::ExchangeLocalModels(
      *models, memory, run.retry, run.faults.seed, nullptr, cancel,
      run_deadline);
  ASSERT_TRUE(exchanged.ok()) << exchanged.status().ToString();
  std::vector<exchange::PeerFetchRecord> in_memory;
  for (const exchange::PeerFetchRecord& record : exchanged->fetches) {
    if (record.consumer == 1) in_memory.push_back(record);
  }

  ASSERT_EQ(over_tcp.size(), num_schemas - 1);
  ASSERT_EQ(over_tcp.size(), in_memory.size());
  for (size_t i = 0; i < over_tcp.size(); ++i) {
    const exchange::PeerFetchRecord& a = over_tcp[i];
    const exchange::PeerFetchRecord& b = in_memory[i];
    EXPECT_TRUE(a.skipped) << i;
    EXPECT_EQ(a.publisher, b.publisher) << i;
    EXPECT_EQ(a.consumer, b.consumer) << i;
    EXPECT_EQ(a.attempts, b.attempts) << i;
    EXPECT_EQ(a.elapsed_ms, b.elapsed_ms) << i;
    EXPECT_EQ(a.ok, b.ok) << i;
    EXPECT_EQ(a.skipped, b.skipped) << i;
    EXPECT_EQ(a.error, b.error) << i;
    EXPECT_EQ(a.faults, b.faults) << i;
  }
}

TEST_F(TcpTransportTest, ExhaustedRunDeadlineSkipsFetchesLikeInMemory) {
  LiveWorker& worker = StartWorker();
  Assign(worker, FaultProfile{});
  TcpTransport tcp = RemoteTransport(worker);
  SimulatedRunClock clock;
  ExpectRecordsMatchInMemory(signatures_, num_schemas_, tcp, nullptr,
                             Deadline::After(&clock, 0.0));
}

TEST_F(TcpTransportTest, TrippedTokenSkipsFetchesLikeInMemory) {
  LiveWorker& worker = StartWorker();
  Assign(worker, FaultProfile{});
  TcpTransport tcp = RemoteTransport(worker);
  CancellationToken cancel;
  cancel.Cancel();
  ExpectRecordsMatchInMemory(signatures_, num_schemas_, tcp, &cancel,
                             Deadline());
}

// --- Pipeline::Run over real workers -----------------------------------------

/// Exchange settings shared by the in-memory and the distributed runs.
pipeline::PipelineOptions FaultyExchangeOptions() {
  pipeline::PipelineOptions options;
  options.explained_variance = 0.8;
  options.exchange.enabled = true;
  options.exchange.faults.drop_probability = 0.3;
  options.exchange.faults.seed = 42;
  options.exchange.degraded.policy = scoping::DegradedPolicy::kKeepAll;
  return options;
}

TEST_F(TcpTransportTest, PipelineRunOverWorkersMatchesInMemoryExchange) {
  const auto matcher = matching::MakeMatcher(matching::MatcherSpec{}, nullptr);
  ASSERT_NE(matcher, nullptr);
  pipeline::PipelineOptions options = FaultyExchangeOptions();
  auto in_memory =
      pipeline::Pipeline(&encoder_, options).Run(scenario_.set, *matcher);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

  obs::MetricsRegistry registry;
  options.metrics = &registry;
  options.exchange.workers = {StartWorker().endpoint, StartWorker().endpoint};
  auto distributed =
      pipeline::Pipeline(&encoder_, options).Run(scenario_.set, *matcher);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
  EXPECT_TRUE(distributed->status.ok()) << distributed->status.ToString();

  // Phase III over TCP agrees with the in-memory exchange.
  EXPECT_EQ(distributed->keep, in_memory->keep);
  EXPECT_EQ(distributed->linkages, in_memory->linkages);
  ASSERT_TRUE(distributed->degradation.has_value());
  ASSERT_TRUE(in_memory->degradation.has_value());
  EXPECT_EQ(distributed->degradation->peers_lost,
            in_memory->degradation->peers_lost);
  EXPECT_EQ(distributed->degradation->arrived_per_schema,
            in_memory->degradation->arrived_per_schema);
  EXPECT_EQ(distributed->degradation->failed_fetches,
            in_memory->degradation->failed_fetches);
  ASSERT_TRUE(distributed->exchange_config.has_value());
  EXPECT_EQ(distributed->exchange_config->transport, "tcp");
  ASSERT_TRUE(distributed->workers.has_value());
  EXPECT_TRUE(distributed->workers->lost_workers.empty());
  EXPECT_FALSE(in_memory->workers.has_value());

  // The phase table ran it: the models stayed on the workers, so
  // local_models is not a phase here, and every phase that ran is timed.
  EXPECT_TRUE(distributed->local_models.empty());
  EXPECT_EQ(distributed->phases_completed,
            (std::vector<std::string>{"signatures", "keep_mask", "streamline",
                                      "match"}));
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (const std::string& phase : distributed->phases_completed) {
    EXPECT_TRUE(HasHistogram(snapshot, "pipeline." + phase + "_ms"))
        << phase;
  }
}

TEST_F(TcpTransportTest, PipelineRunOverWorkersHonorsCrashAfterPhase) {
  const auto matcher = matching::MakeMatcher(matching::MatcherSpec{}, nullptr);
  ASSERT_NE(matcher, nullptr);
  const std::string cache_dir =
      ::testing::TempDir() + "/tcp_transport_test_cache";
  std::filesystem::remove_all(cache_dir);
  pipeline::PipelineOptions options = FaultyExchangeOptions();
  options.exchange.workers = {StartWorker().endpoint};
  options.crash_after_phase = "keep_mask";
  options.cache_dir = cache_dir;
  auto run =
      pipeline::Pipeline(&encoder_, options).Run(scenario_.set, *matcher);
  EXPECT_EQ(run.status().code(), StatusCode::kInternal)
      << run.status().ToString();
  // Phase I's signatures reached the cache before the crash.
  EXPECT_TRUE(std::filesystem::exists(cache_dir));
  EXPECT_FALSE(std::filesystem::is_empty(cache_dir));
  std::filesystem::remove_all(cache_dir);
}

TEST_F(TcpTransportTest, PipelineRunRejectsWorkersOutsideTheExchange) {
  const auto matcher = matching::MakeMatcher(matching::MatcherSpec{}, nullptr);
  ASSERT_NE(matcher, nullptr);
  pipeline::PipelineOptions no_exchange;
  no_exchange.exchange.workers = {Endpoint{"127.0.0.1", 1}};
  EXPECT_EQ(pipeline::Pipeline(&encoder_, no_exchange)
                .Run(scenario_.set, *matcher)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  pipeline::PipelineOptions neural = FaultyExchangeOptions();
  neural.scoper = pipeline::ScoperKind::kCollaborativeNeural;
  neural.exchange.workers = {Endpoint{"127.0.0.1", 1}};
  EXPECT_EQ(
      pipeline::Pipeline(&encoder_, neural).Run(scenario_.set, *matcher)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST_F(TcpTransportTest, ShutdownStopsServeLoop) {
  LiveWorker& worker = StartWorker();
  NetOptions net;
  auto socket = Socket::Connect(worker.endpoint, net);
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(socket->SendFrame(FrameType::kShutdown, "", net).ok());
  auto ack = socket->RecvFrame(net);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, FrameType::kShutdownAck);
  worker.thread.join();  // Serve() must return on its own.
}

// --- Shared serving loop -----------------------------------------------------

/// The process's mapped address space in KiB (VmSize), or -1.
long VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  return -1;
}

TEST(ServeLoopTest, ReapsFinishedConnectionThreadsWhileServing) {
  Result<Listener> listener = Listener::Bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const Endpoint endpoint{"127.0.0.1", listener->port()};
  std::atomic<bool> stop{false};
  ServeLoop loop;
  ServeLoop::Hooks hooks;
  hooks.handle = [](Socket socket) {
    if (socket.RecvFrame(NetOptions{}).ok()) {
      (void)socket.SendFrame(FrameType::kShutdownAck, "", NetOptions{});
    }
  };
  hooks.stop = [&stop] { return stop.load(); };
  Status served = Status::Internal("not served");
  std::thread serving(
      [&] { served = loop.Serve(*listener, NetOptions{}, hooks); });

  const auto serve = [&endpoint](int connections) {
    for (int i = 0; i < connections; ++i) {
      Result<Frame> reply =
          Call(endpoint, FrameType::kShutdown, "", NetOptions{});
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_EQ(reply->type, FrameType::kShutdownAck);
    }
  };
  serve(10);  // Warm-up: allocator arenas and the thread-stack cache.
  const long before_kb = VmSizeKb();
  serve(200);
  const long after_kb = VmSizeKb();
  stop.store(true);
  serving.join();
  EXPECT_TRUE(served.ok()) << served.ToString();
  EXPECT_EQ(loop.active(), 0u);

  // Each finished but unjoined handler thread keeps its stack mapped
  // (about 8.6 MiB with the default stack size), so without reaping these
  // 200 connections would grow the address space by over 1.5 GiB.
  ASSERT_GT(before_kb, 0);
  EXPECT_LT(after_kb - before_kb, 64 * 1024)
      << "VmSize grew from " << before_kb << " to " << after_kb << " KiB";
}

}  // namespace
}  // namespace colscope::net
