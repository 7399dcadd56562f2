#include "net/frame.h"

#include "common/strings.h"

namespace colscope::net {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'N', 'F'};

void PutU16(std::string& out, uint16_t value) {
  out.push_back(static_cast<char>(value & 0xff));
  out.push_back(static_cast<char>((value >> 8) & 0xff));
}

void PutU32(std::string& out, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void PutU64(std::string& out, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

uint16_t GetU16(std::string_view bytes, size_t at) {
  return static_cast<uint16_t>(static_cast<uint8_t>(bytes[at]) |
                               static_cast<uint8_t>(bytes[at + 1]) << 8);
}

uint32_t GetU32(std::string_view bytes, size_t at) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = value << 8 | static_cast<uint8_t>(bytes[at + i]);
  }
  return value;
}

uint64_t GetU64(std::string_view bytes, size_t at) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = value << 8 | static_cast<uint8_t>(bytes[at + i]);
  }
  return value;
}

}  // namespace

bool IsKnownFrameType(uint8_t value) {
  return value >= static_cast<uint8_t>(FrameType::kAssign) &&
         value <= static_cast<uint8_t>(FrameType::kScopeResponse);
}

const char* FrameTypeToString(FrameType type) {
  switch (type) {
    case FrameType::kAssign:
      return "assign";
    case FrameType::kAssignAck:
      return "assign_ack";
    case FrameType::kGetModel:
      return "get_model";
    case FrameType::kModel:
      return "model";
    case FrameType::kError:
      return "error";
    case FrameType::kAssess:
      return "assess";
    case FrameType::kPartial:
      return "partial";
    case FrameType::kShutdown:
      return "shutdown";
    case FrameType::kShutdownAck:
      return "shutdown_ack";
    case FrameType::kStatsRequest:
      return "stats_request";
    case FrameType::kStats:
      return "stats";
    case FrameType::kScopeRequest:
      return "scope_request";
    case FrameType::kScopeResponse:
      return "scope_response";
  }
  return "unknown";
}

uint64_t FrameChecksum(std::string_view payload) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  PutU16(out, kFrameVersion);
  out.push_back(static_cast<char>(type));
  out.push_back('\0');  // flags, reserved
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU64(out, FrameChecksum(payload));
  out.append(payload);
  return out;
}

Result<FrameHeader> ParseFrameHeader(std::string_view header) {
  if (header.size() != kFrameHeaderSize) {
    return Status::InvalidArgument(
        StrFormat("frame header is %zu bytes, want %zu", header.size(),
                  kFrameHeaderSize));
  }
  if (header.compare(0, sizeof(kMagic),
                     std::string_view(kMagic, sizeof(kMagic))) != 0) {
    return Status::InvalidArgument("bad frame magic");
  }
  const uint16_t version = GetU16(header, 4);
  if (version < kMinFrameVersion || version > kFrameVersion) {
    return Status::InvalidArgument(StrFormat(
        "frame version %u, this build speaks %u..%u (version-skewed peer?)",
        version, kMinFrameVersion, kFrameVersion));
  }
  const uint8_t type = static_cast<uint8_t>(header[6]);
  if (!IsKnownFrameType(type)) {
    return Status::InvalidArgument(StrFormat("unknown frame type %u", type));
  }
  if (header[7] != '\0') {
    return Status::InvalidArgument("nonzero frame flags");
  }
  FrameHeader parsed;
  parsed.type = static_cast<FrameType>(type);
  parsed.version = version;
  parsed.payload_len = GetU32(header, 8);
  if (parsed.payload_len > kMaxFramePayload) {
    return Status::InvalidArgument(
        StrFormat("frame payload of %u bytes exceeds the %u byte cap",
                  parsed.payload_len, kMaxFramePayload));
  }
  parsed.checksum = GetU64(header, 12);
  return parsed;
}

Result<Frame> DecodeFrame(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::InvalidArgument(
        StrFormat("frame truncated inside the header: %zu of %zu bytes",
                  bytes.size(), kFrameHeaderSize));
  }
  Result<FrameHeader> header =
      ParseFrameHeader(bytes.substr(0, kFrameHeaderSize));
  if (!header.ok()) return header.status();
  const std::string_view body = bytes.substr(kFrameHeaderSize);
  if (body.size() < header->payload_len) {
    return Status::InvalidArgument(
        StrFormat("frame truncated inside the payload: %zu of %u bytes",
                  body.size(), header->payload_len));
  }
  if (body.size() > header->payload_len) {
    return Status::InvalidArgument(StrFormat(
        "%zu bytes of trailing garbage after the frame payload",
        body.size() - header->payload_len));
  }
  if (FrameChecksum(body) != header->checksum) {
    return Status::InvalidArgument("frame payload checksum mismatch");
  }
  Frame frame;
  frame.type = header->type;
  frame.payload.assign(body);
  return frame;
}

}  // namespace colscope::net
