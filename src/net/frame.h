#ifndef COLSCOPE_NET_FRAME_H_
#define COLSCOPE_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace colscope::net {

/// Message kinds of the coordinator/worker protocol (docs/DISTRIBUTED.md).
/// Values are part of the wire format — append, never renumber. 14 is
/// retired: an older peer may still send it, so it must stay unknown.
enum class FrameType : uint8_t {
  kAssign = 1,       ///< coordinator -> worker: shard + exchange config.
  kAssignAck = 2,    ///< worker -> coordinator: models fitted + published.
  kGetModel = 3,     ///< any -> worker: fetch one published model.
  kModel = 4,        ///< worker -> caller: a serialized LocalModel.
  kError = 5,        ///< worker -> caller: "<status_code> <message>".
  kAssess = 6,       ///< coordinator -> worker: run phase III on the shard.
  kPartial = 7,      ///< worker -> coordinator: partial keep-mask + records.
  kShutdown = 8,      ///< coordinator -> worker: exit after acking.
  kShutdownAck = 9,   ///< worker -> coordinator: goodbye.
  kStatsRequest = 10, ///< coordinator -> worker: hand over your telemetry.
  kStats = 11,        ///< worker -> coordinator: serialized WorkerTelemetry.
  kScopeRequest = 12, ///< client -> colscoped: run a scoping/matching job.
  kScopeResponse = 13,///< colscoped -> client: the pipeline's JSON report.
};

/// True for values that map onto a FrameType member.
bool IsKnownFrameType(uint8_t value);

/// Stable lowercase label for metric names and flight-recorder lines
/// ("assign", "get_model", "stats", ...); "unknown" for values outside
/// the enum.
const char* FrameTypeToString(FrameType type);

/// The version this build emits. Version 2 (PR 7) added the optional
/// trace-context fields to the assign/get-model/assess payload codecs
/// and the kStatsRequest/kStats telemetry frames.
inline constexpr uint16_t kFrameVersion = 2;

/// Oldest version this build still accepts. Version-1 peers simply
/// never send trace context or stats frames, and every v2 payload codec
/// treats the trace fields as optional — so a mid-upgrade fleet (stale
/// worker binary behind a new coordinator, or vice versa) degrades to
/// untraced RPCs instead of failing. Frames outside
/// [kMinFrameVersion, kFrameVersion] are rejected before their payload
/// is read.
inline constexpr uint16_t kMinFrameVersion = 1;

/// Fixed frame header size in bytes: magic(4) + version(2) + type(1) +
/// flags(1) + payload_len(4) + FrameChecksum(payload)(8).
inline constexpr size_t kFrameHeaderSize = 20;

/// Hard cap on one frame's payload. Anything larger is rejected from the
/// header alone — a hostile or corrupt length field never triggers the
/// allocation. Serialized model sets are tens of KB; 16 MiB is generous.
inline constexpr uint32_t kMaxFramePayload = 16u << 20;

/// One decoded protocol message.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Validated header of a frame whose payload has not been read yet.
struct FrameHeader {
  FrameType type = FrameType::kError;
  /// Wire version the peer spoke, within [kMinFrameVersion,
  /// kFrameVersion]. Codecs use it only for diagnostics — optional
  /// fields make v1 payloads decode as-is.
  uint16_t version = kFrameVersion;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;
};

/// The frame payload checksum: FNV-1a 64 with the standard offset
/// basis. Part of the wire format since version 1, so it stays FNV-1a
/// (v1 and v2 peers verify each other's frames); the artifact cache
/// uses common/checksum.h instead.
uint64_t FrameChecksum(std::string_view payload);

/// Encodes `payload` into a wire frame: header (little-endian fixed
/// layout, FrameChecksum of the payload) followed by the payload bytes.
/// Byte-deterministic for identical inputs.
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Parses and validates exactly kFrameHeaderSize header bytes: magic,
/// version, known type, and payload_len <= kMaxFramePayload. Rejecting
/// happens before any payload allocation.
Result<FrameHeader> ParseFrameHeader(std::string_view header);

/// Decodes one complete frame from `bytes`: header validation, exact
/// length match (no truncation, no trailing garbage), checksum match.
/// The error message names what was wrong; no outcome allocates more
/// than `bytes.size()` bytes.
Result<Frame> DecodeFrame(std::string_view bytes);

}  // namespace colscope::net

#endif  // COLSCOPE_NET_FRAME_H_
