#include "net/protocol.h"

#include <sstream>

#include "common/parse.h"
#include "common/strings.h"

namespace colscope::net {

namespace {

/// Caps mirroring the hardened deserializers elsewhere in the repo: a
/// hostile count must never size an allocation.
constexpr size_t kMaxSchemas = 4096;
constexpr size_t kMaxRowsPerSchema = 1u << 20;
constexpr size_t kMaxFetchRecords = kMaxSchemas * 64;

Result<FaultKind> FaultKindFromString(const std::string& name) {
  for (size_t kind = 0; kind < kNumFaultKinds; ++kind) {
    if (name == FaultKindToString(static_cast<FaultKind>(kind))) {
      return static_cast<FaultKind>(kind);
    }
  }
  return Status::InvalidArgument("unknown fault kind: " + name);
}

Status Malformed(const char* what, const std::string& line) {
  return Status::InvalidArgument(
      StrFormat("malformed %s line: %s", what, line.c_str()));
}

}  // namespace

std::string EncodeAssign(const AssignConfig& config) {
  std::string out = "colscope-assign v1\n";
  out += StrFormat("num_schemas %zu\n", config.num_schemas);
  out += StrFormat("v %.17g\n", config.v);
  out += StrFormat("policy %s %zu\n",
                   scoping::DegradedPolicyToString(config.degraded.policy),
                   config.degraded.quorum);
  out += StrFormat("retry %d %.17g %.17g %.17g %.17g %.17g\n",
                   config.retry.max_attempts, config.retry.initial_backoff_ms,
                   config.retry.backoff_multiplier, config.retry.max_backoff_ms,
                   config.retry.jitter, config.retry.deadline_ms);
  out += StrFormat(
      "faults %.17g %.17g %.17g %.17g %.17g %.17g %.17g %llu %d\n",
      config.faults.drop_probability, config.faults.delay_probability,
      config.faults.truncate_probability, config.faults.corrupt_probability,
      config.faults.stale_probability, config.faults.base_latency_ms,
      config.faults.delay_latency_ms,
      static_cast<unsigned long long>(config.faults.seed),
      config.faults.drop_from);
  // Optional line, like "trace" below: the fixed-width "faults" line
  // predates partitions, and v2 decoders require its exact token count,
  // so the new field rides its own line (omitted when unset) instead of
  // widening the existing one.
  if (config.faults.partition_from >= 0) {
    out += StrFormat("partition_from %d\n", config.faults.partition_from);
  }
  out += "shard";
  for (int index : config.shard) out += StrFormat(" %d", index);
  out += '\n';
  if (config.trace.trace_id != 0) {
    out += StrFormat("trace %llu %llu\n",
                     static_cast<unsigned long long>(config.trace.trace_id),
                     static_cast<unsigned long long>(config.trace.parent_span));
  }
  for (const auto& [index, endpoint] : config.owners) {
    out += StrFormat("owner %d %s\n", index, endpoint.ToString().c_str());
  }
  out += "end\n";
  return out;
}

Result<AssignConfig> DecodeAssign(const std::string& payload) {
  std::istringstream in(payload);
  std::string line;
  if (!std::getline(in, line) || line != "colscope-assign v1") {
    return Status::InvalidArgument("bad assign header: " + line);
  }
  AssignConfig config;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    const std::vector<std::string> tokens = TokenizeLine(line);
    if (tokens.empty()) return Malformed("assign", line);
    long long n = 0;
    if (tokens[0] == "num_schemas" && tokens.size() == 2) {
      if (!ParseInt(tokens[1], 2, static_cast<long long>(kMaxSchemas), n)) {
        return Malformed("num_schemas", line);
      }
      config.num_schemas = static_cast<size_t>(n);
    } else if (tokens[0] == "v" && tokens.size() == 2) {
      if (!ParseFiniteDouble(tokens[1], config.v) || config.v <= 0.0 ||
          config.v > 1.0) {
        return Malformed("v", line);
      }
    } else if (tokens[0] == "policy" && tokens.size() == 3) {
      Result<scoping::DegradedOptions> parsed =
          scoping::ParseDegradedPolicy(tokens[1]);
      if (!parsed.ok()) return parsed.status();
      config.degraded = *parsed;
      if (!ParseInt(tokens[2], 1, static_cast<long long>(kMaxSchemas), n)) {
        return Malformed("policy quorum", line);
      }
      config.degraded.quorum = static_cast<size_t>(n);
    } else if (tokens[0] == "retry" && tokens.size() == 7) {
      if (!ParseInt(tokens[1], 1, 1000, n)) return Malformed("retry", line);
      config.retry.max_attempts = static_cast<int>(n);
      if (!ParseFiniteDouble(tokens[2], config.retry.initial_backoff_ms) ||
          !ParseFiniteDouble(tokens[3], config.retry.backoff_multiplier) ||
          !ParseFiniteDouble(tokens[4], config.retry.max_backoff_ms) ||
          !ParseFiniteDouble(tokens[5], config.retry.jitter) ||
          !ParseFiniteDouble(tokens[6], config.retry.deadline_ms)) {
        return Malformed("retry", line);
      }
    } else if (tokens[0] == "faults" && tokens.size() == 10) {
      double* slots[] = {&config.faults.drop_probability,
                         &config.faults.delay_probability,
                         &config.faults.truncate_probability,
                         &config.faults.corrupt_probability,
                         &config.faults.stale_probability,
                         &config.faults.base_latency_ms,
                         &config.faults.delay_latency_ms};
      for (size_t i = 0; i < 7; ++i) {
        if (!ParseFiniteDouble(tokens[1 + i], *slots[i]) || *slots[i] < 0.0) {
          return Malformed("faults", line);
        }
      }
      if (!ParseUint64(tokens[8], config.faults.seed)) {
        return Malformed("faults seed", line);
      }
      if (!ParseInt(tokens[9], -1, static_cast<long long>(kMaxSchemas), n)) {
        return Malformed("faults drop-from", line);
      }
      config.faults.drop_from = static_cast<int>(n);
    } else if (tokens[0] == "partition_from" && tokens.size() == 2) {
      if (!ParseInt(tokens[1], -1, static_cast<long long>(kMaxSchemas), n)) {
        return Malformed("partition_from", line);
      }
      config.faults.partition_from = static_cast<int>(n);
    } else if (tokens[0] == "shard") {
      for (size_t i = 1; i < tokens.size(); ++i) {
        if (!ParseInt(tokens[i], 0, static_cast<long long>(kMaxSchemas), n)) {
          return Malformed("shard", line);
        }
        config.shard.push_back(static_cast<int>(n));
      }
      if (config.shard.size() > kMaxSchemas) return Malformed("shard", line);
    } else if (tokens[0] == "trace" && tokens.size() == 3) {
      if (!ParseUint64(tokens[1], config.trace.trace_id) ||
          !ParseUint64(tokens[2], config.trace.parent_span)) {
        return Malformed("trace", line);
      }
    } else if (tokens[0] == "owner" && tokens.size() == 3) {
      if (!ParseInt(tokens[1], 0, static_cast<long long>(kMaxSchemas), n)) {
        return Malformed("owner", line);
      }
      Result<Endpoint> endpoint = ParseEndpoint(tokens[2]);
      if (!endpoint.ok()) return endpoint.status();
      if (config.owners.size() >= kMaxSchemas) {
        return Malformed("owner", line);
      }
      config.owners[static_cast<int>(n)] = std::move(endpoint).value();
    } else {
      return Malformed("assign", line);
    }
  }
  if (!saw_end) {
    return Status::InvalidArgument("assign payload missing end marker");
  }
  if (config.num_schemas == 0) {
    return Status::InvalidArgument("assign payload missing num_schemas");
  }
  if (config.owners.size() != config.num_schemas) {
    return Status::InvalidArgument(StrFormat(
        "assign names %zu owners for %zu schemas", config.owners.size(),
        config.num_schemas));
  }
  for (int index : config.shard) {
    if (static_cast<size_t>(index) >= config.num_schemas) {
      return Status::InvalidArgument(
          StrFormat("shard index %d out of range", index));
    }
  }
  return config;
}

std::string EncodeGetModel(const GetModelRequest& request) {
  std::string out = StrFormat("get %d %d %d", request.publisher,
                              request.consumer, request.attempt);
  if (request.trace.trace_id != 0) {
    out += StrFormat(" %llu %llu",
                     static_cast<unsigned long long>(request.trace.trace_id),
                     static_cast<unsigned long long>(request.trace.parent_span));
  }
  return out;
}

Result<GetModelRequest> DecodeGetModel(const std::string& payload) {
  const std::vector<std::string> tokens = TokenizeLine(payload);
  long long publisher = 0, consumer = 0, attempt = 0;
  if ((tokens.size() != 4 && tokens.size() != 6) || tokens[0] != "get" ||
      !ParseInt(tokens[1], 0, static_cast<long long>(kMaxSchemas),
                publisher) ||
      !ParseInt(tokens[2], 0, static_cast<long long>(kMaxSchemas),
                consumer) ||
      !ParseInt(tokens[3], 0, 1000, attempt)) {
    return Malformed("get-model", payload);
  }
  GetModelRequest request;
  request.publisher = static_cast<int>(publisher);
  request.consumer = static_cast<int>(consumer);
  request.attempt = static_cast<int>(attempt);
  if (tokens.size() == 6) {
    if (!ParseUint64(tokens[4], request.trace.trace_id) ||
        !ParseUint64(tokens[5], request.trace.parent_span)) {
      return Malformed("get-model trace", payload);
    }
  }
  return request;
}

std::string EncodeAssess(const AssessRequest& request) {
  if (request.trace.trace_id == 0) return std::string();
  return StrFormat("assess %llu %llu",
                   static_cast<unsigned long long>(request.trace.trace_id),
                   static_cast<unsigned long long>(request.trace.parent_span));
}

Result<AssessRequest> DecodeAssess(const std::string& payload) {
  AssessRequest request;
  if (payload.empty()) return request;  // v1 assess frames: no payload.
  const std::vector<std::string> tokens = TokenizeLine(payload);
  if (tokens.size() != 3 || tokens[0] != "assess" ||
      !ParseUint64(tokens[1], request.trace.trace_id) ||
      !ParseUint64(tokens[2], request.trace.parent_span)) {
    return Malformed("assess", payload);
  }
  return request;
}

std::string EncodeErrorPayload(const Status& status) {
  return StrFormat("%s %s", StatusCodeToString(status.code()),
                   status.message().c_str());
}

Status DecodeErrorPayload(const std::string& payload) {
  const size_t space = payload.find(' ');
  const std::string code_name =
      space == std::string::npos ? payload : payload.substr(0, space);
  const std::string message =
      space == std::string::npos ? "" : payload.substr(space + 1);
  for (int code = 1; code <= static_cast<int>(StatusCode::kOverloaded);
       ++code) {
    if (code_name == StatusCodeToString(static_cast<StatusCode>(code))) {
      return Status(static_cast<StatusCode>(code), message);
    }
  }
  return Status::Unavailable("peer error: " + payload);
}

std::string EncodePartial(const PartialResult& partial) {
  std::string out = "colscope-partial v1\n";
  out += StrFormat("consumers %zu\n", partial.consumers.size());
  out += StrFormat("fetches %zu\n", partial.fetches.size());
  for (const ConsumerPartial& consumer : partial.consumers) {
    if (consumer.ok) {
      std::string bits;
      bits.reserve(consumer.bits.size());
      for (bool bit : consumer.bits) bits += bit ? '1' : '0';
      out += StrFormat("consumer %d ok %zu %s\n", consumer.consumer,
                       consumer.arrived, bits.c_str());
    } else {
      out += StrFormat("consumer %d err %zu %s\n", consumer.consumer,
                       consumer.arrived, consumer.error.c_str());
    }
  }
  for (const exchange::PeerFetchRecord& fetch : partial.fetches) {
    std::string faults("-");
    for (size_t i = 0; i < fetch.faults.size(); ++i) {
      if (i == 0) faults.clear();
      if (i > 0) faults += ',';
      faults += FaultKindToString(fetch.faults[i]);
    }
    out += StrFormat("fetch %d %d %d %.17g %d %d %s %s\n", fetch.consumer,
                     fetch.publisher, fetch.attempts, fetch.elapsed_ms,
                     fetch.ok ? 1 : 0, fetch.skipped ? 1 : 0, faults.c_str(),
                     fetch.error.c_str());
  }
  out += "end\n";
  return out;
}

Result<PartialResult> DecodePartial(const std::string& payload) {
  std::istringstream in(payload);
  std::string line;
  if (!std::getline(in, line) || line != "colscope-partial v1") {
    return Status::InvalidArgument("bad partial header: " + line);
  }
  long long num_consumers = -1;
  long long num_fetches = -1;
  PartialResult partial;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    const std::vector<std::string> tokens = TokenizeLine(line);
    if (tokens.empty()) return Malformed("partial", line);
    long long n = 0;
    if (tokens[0] == "consumers" && tokens.size() == 2) {
      if (!ParseInt(tokens[1], 0, static_cast<long long>(kMaxSchemas),
                    num_consumers)) {
        return Malformed("consumers", line);
      }
    } else if (tokens[0] == "fetches" && tokens.size() == 2) {
      if (!ParseInt(tokens[1], 0, static_cast<long long>(kMaxFetchRecords),
                    num_fetches)) {
        return Malformed("fetches", line);
      }
    } else if (tokens[0] == "consumer" && tokens.size() >= 4) {
      ConsumerPartial consumer;
      if (!ParseInt(tokens[1], 0, static_cast<long long>(kMaxSchemas), n)) {
        return Malformed("consumer", line);
      }
      consumer.consumer = static_cast<int>(n);
      if (!ParseInt(tokens[3], 0,
                    static_cast<long long>(kMaxSchemas), n)) {
        return Malformed("consumer arrived", line);
      }
      consumer.arrived = static_cast<size_t>(n);
      if (tokens[2] == "ok") {
        consumer.ok = true;
        const std::string& bits = tokens.size() == 5 ? tokens[4] : line;
        if (tokens.size() != 5 || bits.size() > kMaxRowsPerSchema) {
          return Malformed("consumer bits", line);
        }
        consumer.bits.reserve(bits.size());
        for (char bit : bits) {
          if (bit != '0' && bit != '1') {
            return Malformed("consumer bits", line);
          }
          consumer.bits.push_back(bit == '1');
        }
      } else if (tokens[2] == "err") {
        consumer.ok = false;
        // The error message is everything after the fourth token.
        size_t at = line.find(tokens[3]);
        at = line.find(' ', at);
        consumer.error =
            at == std::string::npos ? "" : line.substr(at + 1);
      } else {
        return Malformed("consumer", line);
      }
      if (partial.consumers.size() >= kMaxSchemas) {
        return Malformed("consumer", line);
      }
      partial.consumers.push_back(std::move(consumer));
    } else if (tokens[0] == "fetch" && tokens.size() >= 8) {
      exchange::PeerFetchRecord fetch;
      long long consumer = 0, publisher = 0, attempts = 0, ok = 0,
                skipped = 0;
      if (!ParseInt(tokens[1], 0, static_cast<long long>(kMaxSchemas),
                    consumer) ||
          !ParseInt(tokens[2], 0, static_cast<long long>(kMaxSchemas),
                    publisher) ||
          !ParseInt(tokens[3], 0, 1000, attempts) ||
          !ParseFiniteDouble(tokens[4], fetch.elapsed_ms) ||
          !ParseInt(tokens[5], 0, 1, ok) ||
          !ParseInt(tokens[6], 0, 1, skipped)) {
        return Malformed("fetch", line);
      }
      fetch.consumer = static_cast<int>(consumer);
      fetch.publisher = static_cast<int>(publisher);
      fetch.attempts = static_cast<int>(attempts);
      fetch.ok = ok == 1;
      fetch.skipped = skipped == 1;
      if (tokens[7] != "-") {
        for (const std::string& name : SplitString(tokens[7], ",")) {
          Result<FaultKind> kind = FaultKindFromString(name);
          if (!kind.ok()) return kind.status();
          if (fetch.faults.size() >= 1000) return Malformed("fetch", line);
          fetch.faults.push_back(*kind);
        }
      }
      // The error message is everything after the faults token.
      size_t at = 0;
      for (int field = 0; field < 7 && at != std::string::npos; ++field) {
        at = line.find(' ', at + 1);
      }
      if (at != std::string::npos) fetch.error = line.substr(at + 1);
      if (partial.fetches.size() >= kMaxFetchRecords) {
        return Malformed("fetch", line);
      }
      partial.fetches.push_back(std::move(fetch));
    } else {
      return Malformed("partial", line);
    }
  }
  if (!saw_end) {
    return Status::InvalidArgument("partial payload missing end marker");
  }
  if (num_consumers < 0 ||
      partial.consumers.size() != static_cast<size_t>(num_consumers)) {
    return Status::InvalidArgument(StrFormat(
        "partial declares %lld consumers but carries %zu", num_consumers,
        partial.consumers.size()));
  }
  if (num_fetches < 0 ||
      partial.fetches.size() != static_cast<size_t>(num_fetches)) {
    return Status::InvalidArgument(
        StrFormat("partial declares %lld fetches but carries %zu",
                  num_fetches, partial.fetches.size()));
  }
  return partial;
}

}  // namespace colscope::net
