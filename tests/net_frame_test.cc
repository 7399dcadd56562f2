// Wire-framing tests: the length-prefixed, versioned, checksummed frame
// codec must reject truncated, oversized, corrupt, and version-skewed
// frames — before any payload allocation for header-level defects — and
// round-trip payloads byte for byte. Plus the line-oriented protocol
// payload codecs (assign / get-model / error / partial).

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "net/telemetry.h"
#include "obs/metrics.h"
#include "mutation_pass.h"

namespace colscope::net {
namespace {

// --- Frame encode / decode ---------------------------------------------------

TEST(FrameTest, RoundTripByteIdentical) {
  const std::string payload = "colscope-local-model v1\nmean 3 1 2 3\n";
  const std::string wire = EncodeFrame(FrameType::kModel, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());

  auto frame = DecodeFrame(wire);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kModel);
  EXPECT_EQ(frame->payload, payload);

  // Encoding is deterministic: same input, same bytes.
  EXPECT_EQ(wire, EncodeFrame(FrameType::kModel, payload));
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  const std::string wire = EncodeFrame(FrameType::kShutdown, "");
  ASSERT_EQ(wire.size(), kFrameHeaderSize);
  auto frame = DecodeFrame(wire);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kShutdown);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(FrameTest, BinaryPayloadSurvives) {
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  auto frame = DecodeFrame(EncodeFrame(FrameType::kPartial, payload));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->payload, payload);
}

TEST(FrameTest, TruncatedHeaderRejected) {
  const std::string wire = EncodeFrame(FrameType::kModel, "payload");
  for (size_t len = 0; len < kFrameHeaderSize; ++len) {
    EXPECT_FALSE(DecodeFrame(wire.substr(0, len)).ok()) << len;
  }
}

TEST(FrameTest, TruncatedPayloadRejected) {
  const std::string wire = EncodeFrame(FrameType::kModel, "some payload");
  for (size_t cut = kFrameHeaderSize; cut < wire.size(); ++cut) {
    auto frame = DecodeFrame(wire.substr(0, cut));
    EXPECT_FALSE(frame.ok()) << cut;
  }
}

TEST(FrameTest, TrailingGarbageRejected) {
  std::string wire = EncodeFrame(FrameType::kModel, "some payload");
  wire += "x";
  EXPECT_FALSE(DecodeFrame(wire).ok());
}

TEST(FrameTest, BadMagicRejected) {
  std::string wire = EncodeFrame(FrameType::kModel, "payload");
  wire[0] = 'X';
  auto frame = DecodeFrame(wire);
  EXPECT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("magic"), std::string::npos);
}

TEST(FrameTest, VersionSkewRejected) {
  std::string wire = EncodeFrame(FrameType::kModel, "payload");
  wire[4] = static_cast<char>(kFrameVersion + 1);  // little-endian lo byte
  auto frame = DecodeFrame(wire);
  EXPECT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("version"), std::string::npos);
}

TEST(FrameTest, UnknownTypeRejected) {
  std::string wire = EncodeFrame(FrameType::kModel, "payload");
  wire[6] = 0;  // type byte; 0 is not a FrameType
  EXPECT_FALSE(DecodeFrame(wire).ok());
  wire[6] = 99;
  EXPECT_FALSE(DecodeFrame(wire).ok());
  EXPECT_FALSE(IsKnownFrameType(0));
  EXPECT_FALSE(IsKnownFrameType(99));
  EXPECT_TRUE(IsKnownFrameType(static_cast<uint8_t>(FrameType::kModel)));
}

TEST(FrameTest, OversizedLengthRejectedFromHeaderAlone) {
  // A hostile length field must be rejected by ParseFrameHeader — i.e.
  // before anyone allocates payload_len bytes. Build a header claiming a
  // payload just over the cap.
  std::string wire = EncodeFrame(FrameType::kModel, "tiny");
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(&wire[8], &huge, sizeof(huge));
  auto header = ParseFrameHeader(std::string_view(wire).substr(
      0, kFrameHeaderSize));
  EXPECT_FALSE(header.ok());
  EXPECT_NE(header.status().message().find("payload"), std::string::npos);

  // At the cap is still structurally acceptable header-wise.
  const uint32_t at_cap = kMaxFramePayload;
  std::memcpy(&wire[8], &at_cap, sizeof(at_cap));
  EXPECT_TRUE(
      ParseFrameHeader(std::string_view(wire).substr(0, kFrameHeaderSize))
          .ok());
}

TEST(FrameTest, ChecksumMismatchRejected) {
  std::string wire = EncodeFrame(FrameType::kModel, "some payload");
  wire[kFrameHeaderSize + 3] ^= 0x40;  // flip one payload bit
  auto frame = DecodeFrame(wire);
  EXPECT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("checksum"), std::string::npos);
}

TEST(FrameTest, EveryHeaderByteFlipDetected) {
  // Flipping any single header byte must never yield a *different*
  // successfully-decoded frame: either the decode fails, or (for the
  // flags/reserved byte) it may be tolerated only if the decode result
  // is unchanged. This is the allocation-safety net for line noise.
  const std::string payload = "abcdefgh";
  const std::string wire = EncodeFrame(FrameType::kAssign, payload);
  for (size_t i = 0; i < kFrameHeaderSize; ++i) {
    std::string bent = wire;
    bent[i] ^= 0x01;
    auto frame = DecodeFrame(bent);
    if (frame.ok()) {
      EXPECT_EQ(frame->type, FrameType::kAssign) << "byte " << i;
      EXPECT_EQ(frame->payload, payload) << "byte " << i;
    }
  }
}

// --- Protocol payload codecs -------------------------------------------------

TEST(ProtocolTest, AssignRoundTrip) {
  AssignConfig config;
  config.num_schemas = 4;
  config.v = 0.65;
  config.degraded.policy = scoping::DegradedPolicy::kQuorum;
  config.degraded.quorum = 2;
  config.retry.max_attempts = 3;
  config.retry.deadline_ms = 1234.5;
  config.faults.drop_probability = 0.25;
  config.faults.seed = 99;
  config.faults.drop_from = 2;
  config.shard = {1, 3};
  config.owners[0] = {"127.0.0.1", 7001};
  config.owners[1] = {"127.0.0.1", 7002};
  config.owners[2] = {"127.0.0.1", 7001};
  config.owners[3] = {"127.0.0.1", 7002};

  auto decoded = DecodeAssign(EncodeAssign(config));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_schemas, 4u);
  EXPECT_DOUBLE_EQ(decoded->v, 0.65);
  EXPECT_EQ(decoded->degraded.policy, scoping::DegradedPolicy::kQuorum);
  EXPECT_EQ(decoded->degraded.quorum, 2u);
  EXPECT_EQ(decoded->retry.max_attempts, 3);
  EXPECT_DOUBLE_EQ(decoded->retry.deadline_ms, 1234.5);
  EXPECT_DOUBLE_EQ(decoded->faults.drop_probability, 0.25);
  EXPECT_EQ(decoded->faults.seed, 99u);
  EXPECT_EQ(decoded->faults.drop_from, 2);
  EXPECT_EQ(decoded->shard, (std::vector<int>{1, 3}));
  ASSERT_EQ(decoded->owners.size(), 4u);
  EXPECT_EQ(decoded->owners[1].port, 7002);

  // Encoding is deterministic.
  EXPECT_EQ(EncodeAssign(config), EncodeAssign(config));
}

TEST(ProtocolTest, AssignRejectsGarbage) {
  EXPECT_FALSE(DecodeAssign("").ok());
  EXPECT_FALSE(DecodeAssign("not-an-assign v1\n").ok());
  EXPECT_FALSE(DecodeAssign("colscope-assign v2\n").ok());
  // Truncations of a valid encoding must never decode.
  AssignConfig config;
  config.num_schemas = 2;
  config.shard = {0};
  config.owners[0] = {"127.0.0.1", 7001};
  config.owners[1] = {"127.0.0.1", 7002};
  const std::string wire = EncodeAssign(config);
  for (size_t cut = 0; cut < wire.size(); cut += 7) {
    EXPECT_FALSE(DecodeAssign(wire.substr(0, cut)).ok()) << cut;
  }
}

TEST(ProtocolTest, GetModelRoundTrip) {
  GetModelRequest request{3, 1, 4, {}};
  auto decoded = DecodeGetModel(EncodeGetModel(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->publisher, 3);
  EXPECT_EQ(decoded->consumer, 1);
  EXPECT_EQ(decoded->attempt, 4);
  EXPECT_FALSE(DecodeGetModel("bogus").ok());
  EXPECT_FALSE(DecodeGetModel("").ok());
}

TEST(ProtocolTest, ErrorPayloadRoundTrip) {
  const Status status = Status::NotFound("model 3 not published");
  const Status decoded = DecodeErrorPayload(EncodeErrorPayload(status));
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.message(), "model 3 not published");
  // Unknown code decodes towards retry, not crash.
  EXPECT_EQ(DecodeErrorPayload("WAT broken").code(),
            StatusCode::kUnavailable);
}

TEST(ProtocolTest, PartialRoundTrip) {
  PartialResult partial;
  ConsumerPartial good;
  good.consumer = 1;
  good.ok = true;
  good.arrived = 2;
  good.bits = {true, false, true};
  ConsumerPartial bad;
  bad.consumer = 3;
  bad.ok = false;
  bad.arrived = 0;
  bad.error = "quorum unmet: 0 < 2";
  partial.consumers = {good, bad};
  exchange::PeerFetchRecord record;
  record.publisher = 0;
  record.consumer = 1;
  record.attempts = 2;
  record.elapsed_ms = 12.5;
  record.ok = true;
  record.faults = {FaultKind::kDrop, FaultKind::kNone};
  partial.fetches = {record};

  auto decoded = DecodePartial(EncodePartial(partial));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->consumers.size(), 2u);
  EXPECT_TRUE(decoded->consumers[0].ok);
  EXPECT_EQ(decoded->consumers[0].arrived, 2u);
  EXPECT_EQ(decoded->consumers[0].bits,
            (std::vector<bool>{true, false, true}));
  EXPECT_FALSE(decoded->consumers[1].ok);
  EXPECT_EQ(decoded->consumers[1].error, "quorum unmet: 0 < 2");
  ASSERT_EQ(decoded->fetches.size(), 1u);
  EXPECT_EQ(decoded->fetches[0].attempts, 2);
  EXPECT_DOUBLE_EQ(decoded->fetches[0].elapsed_ms, 12.5);
  EXPECT_EQ(decoded->fetches[0].faults,
            (std::vector<FaultKind>{FaultKind::kDrop, FaultKind::kNone}));

  // Framed round trip is byte-identical to the in-memory payload.
  const std::string payload = EncodePartial(partial);
  auto frame = DecodeFrame(EncodeFrame(FrameType::kPartial, payload));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->payload, payload);
}

TEST(ProtocolTest, PartialRejectsTruncationAndCountLies) {
  PartialResult partial;
  ConsumerPartial one;
  one.consumer = 0;
  one.ok = true;
  one.arrived = 1;
  one.bits = {true};
  partial.consumers = {one};
  const std::string wire = EncodePartial(partial);
  for (size_t cut = 0; cut < wire.size(); cut += 5) {
    EXPECT_FALSE(DecodePartial(wire.substr(0, cut)).ok()) << cut;
  }
  EXPECT_FALSE(DecodePartial("colscope-partial v1\nconsumers 9999999999\n")
                   .ok());
}

// --- Version skew and new frame types ----------------------------------------

TEST(FrameTest, OlderPeerVersionAccepted) {
  // A v1 peer (pre-telemetry build) must still interoperate: the
  // checksum covers only the payload, so rewriting the version bytes to
  // kMinFrameVersion yields a frame this build accepts unchanged.
  std::string wire = EncodeFrame(FrameType::kModel, "payload");
  wire[4] = static_cast<char>(kMinFrameVersion);
  wire[5] = '\0';
  auto frame = DecodeFrame(wire);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kModel);
  EXPECT_EQ(frame->payload, "payload");

  auto header =
      ParseFrameHeader(std::string_view(wire).substr(0, kFrameHeaderSize));
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->version, kMinFrameVersion);

  // Below the floor (version 0) is rejected like a future version.
  wire[4] = '\0';
  auto rejected = DecodeFrame(wire);
  EXPECT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("version"), std::string::npos);
}

TEST(FrameTest, TelemetryFrameTypesRoundTrip) {
  auto request = DecodeFrame(EncodeFrame(FrameType::kStatsRequest, ""));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->type, FrameType::kStatsRequest);
  auto stats = DecodeFrame(EncodeFrame(FrameType::kStats, "colscope-stats"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->type, FrameType::kStats);
  EXPECT_TRUE(IsKnownFrameType(static_cast<uint8_t>(FrameType::kStats)));
  EXPECT_FALSE(IsKnownFrameType(15));
}

TEST(FrameTest, ServerFrameTypesRoundTrip) {
  auto request = DecodeFrame(EncodeFrame(FrameType::kScopeRequest, "req"));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->type, FrameType::kScopeRequest);
  auto response = DecodeFrame(EncodeFrame(FrameType::kScopeResponse, "{}"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->type, FrameType::kScopeResponse);
  EXPECT_TRUE(
      IsKnownFrameType(static_cast<uint8_t>(FrameType::kScopeResponse)));
  // 14 is retired: a frame carrying it is rejected from its header.
  EXPECT_FALSE(IsKnownFrameType(14));
}

TEST(FrameTest, FrameTypeNamesAreStable) {
  // These labels key the net.bytes_*/net.rpc_ms.* metric names and the
  // flight-recorder lines — renaming one silently breaks dashboards.
  EXPECT_STREQ(FrameTypeToString(FrameType::kAssign), "assign");
  EXPECT_STREQ(FrameTypeToString(FrameType::kGetModel), "get_model");
  EXPECT_STREQ(FrameTypeToString(FrameType::kAssess), "assess");
  EXPECT_STREQ(FrameTypeToString(FrameType::kStatsRequest), "stats_request");
  EXPECT_STREQ(FrameTypeToString(FrameType::kStats), "stats");
  EXPECT_STREQ(FrameTypeToString(FrameType::kScopeRequest), "scope_request");
  EXPECT_STREQ(FrameTypeToString(FrameType::kScopeResponse),
               "scope_response");
  EXPECT_STREQ(FrameTypeToString(static_cast<FrameType>(99)), "unknown");
}

// --- Trace context on the payload codecs -------------------------------------

TEST(ProtocolTest, AssignTraceContextRoundTrip) {
  AssignConfig config;
  config.num_schemas = 2;
  config.shard = {0};
  config.owners[0] = {"127.0.0.1", 7001};
  config.owners[1] = {"127.0.0.1", 7002};

  // Untraced configs encode no trace line — byte-compatible with v1.
  EXPECT_EQ(EncodeAssign(config).find("trace"), std::string::npos);
  auto untraced = DecodeAssign(EncodeAssign(config));
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->trace.trace_id, 0u);
  EXPECT_EQ(untraced->trace.parent_span, 0u);

  config.trace.trace_id = 0x7ffffffffffffffeull;
  config.trace.parent_span = 17;
  auto traced = DecodeAssign(EncodeAssign(config));
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_EQ(traced->trace.trace_id, 0x7ffffffffffffffeull);
  EXPECT_EQ(traced->trace.parent_span, 17u);
}

TEST(ProtocolTest, GetModelTraceContextRoundTrip) {
  GetModelRequest request;
  request.publisher = 3;
  request.consumer = 1;
  request.attempt = 4;
  // The v1 shape (4 tokens) still decodes with zero trace context.
  auto untraced = DecodeGetModel(EncodeGetModel(request));
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->trace.trace_id, 0u);

  request.trace.trace_id = 42;
  request.trace.parent_span = 7;
  auto traced = DecodeGetModel(EncodeGetModel(request));
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_EQ(traced->publisher, 3);
  EXPECT_EQ(traced->trace.trace_id, 42u);
  EXPECT_EQ(traced->trace.parent_span, 7u);
  // 5 tokens (a half trace context) is malformed, not "optional".
  EXPECT_FALSE(DecodeGetModel("get_model 3 1 4 42").ok());
}

TEST(ProtocolTest, AssessRequestRoundTrip) {
  // The empty payload is the v1 wire shape and decodes as untraced.
  AssessRequest untraced;
  EXPECT_TRUE(EncodeAssess(untraced).empty());
  auto decoded = DecodeAssess("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->trace.trace_id, 0u);

  AssessRequest traced;
  traced.trace.trace_id = 9;
  traced.trace.parent_span = 5;
  auto round = DecodeAssess(EncodeAssess(traced));
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->trace.trace_id, 9u);
  EXPECT_EQ(round->trace.parent_span, 5u);
  EXPECT_FALSE(DecodeAssess("assess 9").ok());
  EXPECT_FALSE(DecodeAssess("bogus 9 5").ok());
}

// --- Stats (telemetry) codec -------------------------------------------------

TEST(TelemetryTest, StatsTokenEscaping) {
  EXPECT_EQ(EncodeStatsToken("plain.name"), "plain.name");
  EXPECT_EQ(EncodeStatsToken(""), "%");
  EXPECT_EQ(EncodeStatsToken("has space"), "has%20space");
  EXPECT_EQ(EncodeStatsToken("1%2"), "1%252");
  for (const std::string& raw :
       {std::string("a b\nc%d\te"), std::string("\x01\x7f"),
        std::string("worker \"zero\"")}) {
    auto decoded = DecodeStatsToken(EncodeStatsToken(raw));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, raw);
    // The encoded form is line-framing safe: one whitespace-free token.
    const std::string encoded = EncodeStatsToken(raw);
    EXPECT_EQ(encoded.find(' '), std::string::npos);
    EXPECT_EQ(encoded.find('\n'), std::string::npos);
  }
  EXPECT_FALSE(DecodeStatsToken("trailing%2").ok());
  EXPECT_FALSE(DecodeStatsToken("bad%zz").ok());
}

TEST(TelemetryTest, StatsRoundTripPreservesEverything) {
  WorkerTelemetry telemetry;
  telemetry.trace_id = 0x1234567890abcdefull & 0x7fffffffffffffffull;
  obs::MetricsRegistry registry;
  registry.GetCounter("exchange.fetches").Increment(5);
  registry.GetCounter("weird name\nwith\"bytes").Increment(1);
  registry.GetGauge("queue.depth").Set(-2.5);
  registry.GetHistogram("net.rpc_ms.get_model", {1.0, 8.0}).Observe(3.0);
  telemetry.metrics = registry.Snapshot();
  telemetry.thread_names = {"assign", "assess thread"};
  obs::TraceEvent event;
  event.name = "worker.assign";
  event.ts_us = 12.5;
  event.dur_us = 3.25;
  event.tid = 0;
  event.span_id = 4;
  event.parent_span_id = 2;
  event.args = {{"schemas", 2}, {"arg with space", -1}};
  telemetry.events.push_back(event);

  const std::string wire = EncodeStats(telemetry);
  // Deterministic bytes: the harvest is part of the byte-compare surface.
  EXPECT_EQ(wire, EncodeStats(telemetry));

  auto decoded = DecodeStats(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace_id, telemetry.trace_id);
  ASSERT_EQ(decoded->metrics.counters.size(), 2u);
  EXPECT_EQ(decoded->metrics.counters[0].first, "exchange.fetches");
  EXPECT_EQ(decoded->metrics.counters[0].second, 5u);
  EXPECT_EQ(decoded->metrics.counters[1].first, "weird name\nwith\"bytes");
  ASSERT_EQ(decoded->metrics.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(decoded->metrics.gauges[0].second, -2.5);
  ASSERT_EQ(decoded->metrics.histograms.size(), 1u);
  const auto& histogram = decoded->metrics.histograms[0].second;
  EXPECT_EQ(histogram.total_count, 1u);
  EXPECT_DOUBLE_EQ(histogram.sum, 3.0);
  ASSERT_EQ(histogram.upper_bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(histogram.upper_bounds[1], 8.0);
  ASSERT_EQ(histogram.counts.size(), 3u);
  EXPECT_EQ(histogram.counts[1], 1u);
  EXPECT_EQ(decoded->thread_names,
            (std::vector<std::string>{"assign", "assess thread"}));
  ASSERT_EQ(decoded->events.size(), 1u);
  EXPECT_EQ(decoded->events[0].name, "worker.assign");
  EXPECT_DOUBLE_EQ(decoded->events[0].ts_us, 12.5);
  EXPECT_DOUBLE_EQ(decoded->events[0].dur_us, 3.25);
  EXPECT_EQ(decoded->events[0].span_id, 4u);
  EXPECT_EQ(decoded->events[0].parent_span_id, 2u);
  ASSERT_EQ(decoded->events[0].args.size(), 2u);
  EXPECT_EQ(decoded->events[0].args[1].first, "arg with space");
  EXPECT_EQ(decoded->events[0].args[1].second, -1);
}

TEST(TelemetryTest, StatsRejectsMalformedPayloads) {
  EXPECT_FALSE(DecodeStats("").ok());
  EXPECT_FALSE(DecodeStats("not-stats v1\nend\n").ok());
  // Missing "end" marker: a truncated harvest must not half-decode.
  EXPECT_FALSE(DecodeStats("colscope-stats v1\ntrace_id 1\n").ok());
  // Hostile counts must be rejected, not allocated.
  EXPECT_FALSE(
      DecodeStats("colscope-stats v1\nhist h 1 1.0 4294967295 1.0\nend\n")
          .ok());
  // Thread ids must arrive densely in order.
  EXPECT_FALSE(
      DecodeStats("colscope-stats v1\nthread 3 late\nend\n").ok());
  // Truncations of a valid encoding never decode.
  WorkerTelemetry telemetry;
  obs::MetricsRegistry registry;
  registry.GetCounter("a").Increment(1);
  telemetry.metrics = registry.Snapshot();
  telemetry.thread_names = {"main"};
  const std::string wire = EncodeStats(telemetry);
  for (size_t cut = 0; cut < wire.size(); cut += 3) {
    EXPECT_FALSE(DecodeStats(wire.substr(0, cut)).ok()) << cut;
  }
}

// --- Seeded mutation pass over frame decoding --------------------------------

/// Decodes `wire` and, when it is accepted, re-encodes the frame at the
/// version its header declared: an accepted frame must be exactly the
/// bytes some peer's EncodeFrame would have sent.
std::optional<std::string> DecodeAndReencodeFrame(const std::string& wire) {
  Result<Frame> frame = DecodeFrame(wire);
  if (!frame.ok()) return std::nullopt;
  Result<FrameHeader> header =
      ParseFrameHeader(std::string_view(wire).substr(0, kFrameHeaderSize));
  EXPECT_TRUE(header.ok()) << "DecodeFrame accepted a header it rejects";
  if (!header.ok()) return std::nullopt;
  std::string out = EncodeFrame(frame->type, frame->payload);
  out[4] = static_cast<char>(header->version & 0xff);
  out[5] = static_cast<char>(header->version >> 8);
  return out;
}

void RunFrameMutationPass(int rounds, uint64_t seed) {
  const std::string text = "colscope-local-model v1\nmean 3 1 2 3\n";
  std::string binary;
  for (int i = 0; i < 64; ++i) binary.push_back(static_cast<char>(i * 37));
  std::string v1 = EncodeFrame(FrameType::kModel, text);
  v1[4] = static_cast<char>(kMinFrameVersion);
  v1[5] = '\0';
  const struct {
    const char* name;
    std::string payload;
    std::string wire;
  } frames[] = {
      {"text", text, EncodeFrame(FrameType::kModel, text)},
      {"binary", binary, EncodeFrame(FrameType::kAssess, binary)},
      {"empty", "", EncodeFrame(FrameType::kStatsRequest, "")},
      {"v1", text, v1},
  };
  for (size_t f = 0; f < std::size(frames); ++f) {
    // Header-field edits target the digits of the whole frame: the
    // binary header has none, the text payload's are under the checksum.
    // One mutation can change the type byte into another known type, but
    // never the payload: the length and the checksum both cover it.
    MutationPass(frames[f].name, frames[f].wire, frames[f].wire.size(),
                 rounds, seed + f,
                 [&](const std::string& wire) -> std::optional<std::string> {
                   std::optional<std::string> out =
                       DecodeAndReencodeFrame(wire);
                   if (out) {
                     EXPECT_EQ(out->substr(kFrameHeaderSize),
                               frames[f].payload)
                         << frames[f].name;
                   }
                   return out;
                 });
  }
}

TEST(FrameMutationTest, SeededShortPass) {
  RunFrameMutationPass(/*rounds=*/400, /*seed=*/0xf4a3e);
}

// The long pass runs in the ASan/UBSan lane (tools/run_sanitized_tests.sh
// passes --gtest_also_run_disabled_tests); tier-1 runs the short one.
TEST(FrameMutationTest, DISABLED_SeededLongPass) {
  RunFrameMutationPass(/*rounds=*/20000, /*seed=*/0x5eedf4a3e);
}

}  // namespace
}  // namespace colscope::net
