#include "server/protocol.h"

#include <cctype>
#include <optional>
#include <sstream>

#include "common/parse.h"
#include "common/strings.h"
#include "net/telemetry.h"

namespace colscope::server {

namespace {

Status Malformed(const char* what, const std::string& line) {
  return Status::InvalidArgument(
      StrFormat("malformed %s line: %s", what, line.c_str()));
}

/// A bare identifier token: non-empty, no whitespace or '%' games — the
/// scoper/matcher/kind vocabulary. Validated so a decoded request can be
/// logged verbatim.
bool IsIdentToken(const std::string& token) {
  if (token.empty() || token.size() > 64) return false;
  for (char c : token) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-')) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string EncodeScopeRequest(const ScopeRequest& request) {
  std::string out = "colscope-scope v1\n";
  out += StrFormat("config %s %s %.17g %.17g %.17g %.17g\n",
                   request.scoper.c_str(), request.matcher.c_str(),
                   request.param, request.v, request.keep_portion,
                   request.deadline_ms);
  if (request.trace.trace_id != 0) {
    out += StrFormat(
        "trace %llu %llu\n",
        static_cast<unsigned long long>(request.trace.trace_id),
        static_cast<unsigned long long>(request.trace.parent_span));
  }
  for (const ScopeRequestSchema& schema : request.schemas) {
    out += StrFormat("schema %s %s %s\n", schema.kind.c_str(),
                     net::EncodeStatsToken(schema.name).c_str(),
                     net::EncodeStatsToken(schema.text).c_str());
  }
  out += "end\n";
  return out;
}

Result<ScopeRequest> DecodeScopeRequest(const std::string& payload) {
  std::istringstream in(payload);
  std::string line;
  if (!std::getline(in, line) || line != "colscope-scope v1") {
    return Status::InvalidArgument("bad scope request header: " + line);
  }
  ScopeRequest request;
  bool saw_end = false;
  bool saw_config = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    const std::vector<std::string> tokens = TokenizeLine(line);
    if (tokens.empty()) return Malformed("scope request", line);
    if (tokens[0] == "config" && tokens.size() == 7) {
      if (!IsIdentToken(tokens[1]) || !IsIdentToken(tokens[2])) {
        return Malformed("config", line);
      }
      request.scoper = tokens[1];
      request.matcher = tokens[2];
      if (!ParseFiniteDouble(tokens[3], request.param) ||
          !ParseFiniteDouble(tokens[4], request.v) ||
          !ParseFiniteDouble(tokens[5], request.keep_portion) ||
          !ParseFiniteDouble(tokens[6], request.deadline_ms)) {
        return Malformed("config", line);
      }
      if (request.v <= 0.0 || request.v > 1.0) {
        return Malformed("config v", line);
      }
      saw_config = true;
    } else if (tokens[0] == "trace" && tokens.size() == 3) {
      if (!ParseUint64(tokens[1], request.trace.trace_id) ||
          !ParseUint64(tokens[2], request.trace.parent_span)) {
        return Malformed("trace", line);
      }
    } else if (tokens[0] == "schema" && tokens.size() == 4) {
      if (request.schemas.size() >= kMaxRequestSchemas) {
        return Status::InvalidArgument(
            StrFormat("scope request exceeds the %zu schema cap",
                      kMaxRequestSchemas));
      }
      if (tokens[1] != "ddl" && tokens[1] != "csv") {
        return Malformed("schema kind", line);
      }
      Result<std::string> name = net::DecodeStatsToken(tokens[2]);
      if (!name.ok()) return Malformed("schema name", line);
      Result<std::string> text = net::DecodeStatsToken(tokens[3]);
      if (!text.ok()) return Malformed("schema text", line);
      ScopeRequestSchema schema;
      schema.kind = tokens[1];
      schema.name = std::move(name).value();
      schema.text = std::move(text).value();
      request.schemas.push_back(std::move(schema));
    } else {
      return Malformed("scope request", line);
    }
  }
  if (!saw_end) {
    return Status::InvalidArgument("scope request missing end marker");
  }
  if (!saw_config) {
    return Status::InvalidArgument("scope request missing config line");
  }
  if (request.schemas.empty()) {
    return Status::InvalidArgument("scope request carries no schemas");
  }
  return request;
}

Result<HealthInfo> HealthFromMetrics(const obs::MetricsSnapshot& metrics) {
  // Absent instruments read as 0; only the draining gauge is required.
  const auto gauge = [&](const char* name) -> std::optional<double> {
    for (const auto& [key, value] : metrics.gauges) {
      if (key == name) return value;
    }
    return std::nullopt;
  };
  const auto counter = [&](const char* name) -> uint64_t {
    for (const auto& [key, value] : metrics.counters) {
      if (key == name) return value;
    }
    return 0;
  };
  const std::optional<double> draining = gauge("server.draining");
  if (!draining.has_value()) {
    return Status::InvalidArgument(
        "stats reply carries no server.draining gauge: not a colscoped");
  }
  HealthInfo info;
  info.state = *draining != 0.0 ? "draining" : "serving";
  info.queue_depth =
      static_cast<size_t>(gauge("server.queue_depth").value_or(0.0));
  info.inflight = static_cast<size_t>(gauge("server.inflight").value_or(0.0));
  info.admitted = counter("server.requests_admitted");
  info.shed = counter("server.requests_shed");
  info.deadline_exceeded = counter("server.requests_deadline_exceeded");
  info.completed = counter("server.requests_completed");
  info.failed = counter("server.requests_failed");
  return info;
}

}  // namespace colscope::server
