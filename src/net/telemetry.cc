#include "net/telemetry.h"

#include <climits>
#include <sstream>

#include "common/parse.h"
#include "common/strings.h"

namespace colscope::net {

namespace {

/// Caps mirroring the other hardened codecs: a hostile count must never
/// size an allocation, and one malicious worker must not balloon the
/// coordinator.
constexpr size_t kMaxMetricEntries = 8192;
constexpr size_t kMaxHistogramBounds = 64;
constexpr size_t kMaxTraceEvents = 65536;
constexpr size_t kMaxSpanArgs = 64;
constexpr size_t kMaxNameBytes = 4096;
constexpr size_t kMaxThreads = 4096;

Status Malformed(const char* what, const std::string& line) {
  return Status::InvalidArgument(
      StrFormat("malformed stats %s line: %s", what, line.c_str()));
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

std::string EncodeStatsToken(const std::string& raw) {
  if (raw.empty()) return "%";
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    if (c <= 0x20 || c == '%' || c == 0x7f) {
      out += '%';
      out += hex[c >> 4];
      out += hex[c & 0xf];
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

Result<std::string> DecodeStatsToken(const std::string& token) {
  if (token == "%") return std::string();
  std::string out;
  out.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size()) {
      return Status::InvalidArgument("truncated %-escape in stats token");
    }
    const int hi = HexDigit(token[i + 1]);
    const int lo = HexDigit(token[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("bad %-escape in stats token");
    }
    out += static_cast<char>(hi << 4 | lo);
    i += 2;
  }
  return out;
}

std::string EncodeStats(const WorkerTelemetry& telemetry) {
  std::string out = "colscope-stats v1\n";
  out += StrFormat("trace_id %llu\n",
                   static_cast<unsigned long long>(telemetry.trace_id));
  for (size_t tid = 0; tid < telemetry.thread_names.size(); ++tid) {
    out += StrFormat("thread %zu %s\n", tid,
                     EncodeStatsToken(telemetry.thread_names[tid]).c_str());
  }
  for (const auto& [name, value] : telemetry.metrics.counters) {
    out += StrFormat("counter %s %llu\n", EncodeStatsToken(name).c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : telemetry.metrics.gauges) {
    out += StrFormat("gauge %s %.17g\n", EncodeStatsToken(name).c_str(),
                     value);
  }
  for (const auto& [name, hist] : telemetry.metrics.histograms) {
    out += StrFormat("hist %s %llu %.17g %zu", EncodeStatsToken(name).c_str(),
                     static_cast<unsigned long long>(hist.total_count),
                     hist.sum, hist.upper_bounds.size());
    for (double bound : hist.upper_bounds) out += StrFormat(" %.17g", bound);
    for (uint64_t count : hist.counts) {
      out += StrFormat(" %llu", static_cast<unsigned long long>(count));
    }
    out += '\n';
  }
  for (const obs::TraceEvent& event : telemetry.events) {
    out += StrFormat("event %s %.17g %.17g %d %llu %llu %zu",
                     EncodeStatsToken(event.name).c_str(), event.ts_us,
                     event.dur_us, event.tid,
                     static_cast<unsigned long long>(event.span_id),
                     static_cast<unsigned long long>(event.parent_span_id),
                     event.args.size());
    for (const auto& [key, value] : event.args) {
      out += StrFormat(" %s %lld", EncodeStatsToken(key).c_str(), value);
    }
    out += '\n';
  }
  out += "end\n";
  return out;
}

Result<WorkerTelemetry> DecodeStats(const std::string& payload) {
  std::istringstream in(payload);
  std::string line;
  if (!std::getline(in, line) || line != "colscope-stats v1") {
    return Status::InvalidArgument("bad stats header: " + line);
  }
  WorkerTelemetry telemetry;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      saw_end = true;
      break;
    }
    const std::vector<std::string> tokens = TokenizeLine(line);
    if (tokens.empty()) return Malformed("stats", line);
    if (tokens[0] == "trace_id" && tokens.size() == 2) {
      if (!ParseUint64(tokens[1], telemetry.trace_id)) {
        return Malformed("trace_id", line);
      }
    } else if (tokens[0] == "thread" && tokens.size() == 3) {
      uint64_t tid = 0;
      if (!ParseUint64(tokens[1], tid) || tid >= kMaxThreads ||
          tid != telemetry.thread_names.size() ||
          tokens[2].size() > kMaxNameBytes) {
        return Malformed("thread", line);
      }
      Result<std::string> name = DecodeStatsToken(tokens[2]);
      if (!name.ok()) return name.status();
      telemetry.thread_names.push_back(std::move(name).value());
    } else if (tokens[0] == "counter" && tokens.size() == 3) {
      uint64_t value = 0;
      if (tokens[1].size() > kMaxNameBytes || !ParseUint64(tokens[2], value) ||
          telemetry.metrics.counters.size() >= kMaxMetricEntries) {
        return Malformed("counter", line);
      }
      Result<std::string> name = DecodeStatsToken(tokens[1]);
      if (!name.ok()) return name.status();
      telemetry.metrics.counters.emplace_back(std::move(name).value(), value);
    } else if (tokens[0] == "gauge" && tokens.size() == 3) {
      double value = 0.0;
      if (tokens[1].size() > kMaxNameBytes ||
          !ParseFiniteDouble(tokens[2], value) ||
          telemetry.metrics.gauges.size() >= kMaxMetricEntries) {
        return Malformed("gauge", line);
      }
      Result<std::string> name = DecodeStatsToken(tokens[1]);
      if (!name.ok()) return name.status();
      telemetry.metrics.gauges.emplace_back(std::move(name).value(), value);
    } else if (tokens[0] == "hist" && tokens.size() >= 5) {
      if (telemetry.metrics.histograms.size() >= kMaxMetricEntries ||
          tokens[1].size() > kMaxNameBytes) {
        return Malformed("hist", line);
      }
      Result<std::string> name = DecodeStatsToken(tokens[1]);
      if (!name.ok()) return name.status();
      obs::Histogram::Snapshot hist;
      uint64_t bounds = 0;
      if (!ParseUint64(tokens[2], hist.total_count) ||
          !ParseFiniteDouble(tokens[3], hist.sum) ||
          !ParseUint64(tokens[4], bounds) || bounds > kMaxHistogramBounds) {
        return Malformed("hist", line);
      }
      // nbounds finite edges followed by nbounds+1 bucket counts.
      if (tokens.size() != 5 + bounds + bounds + 1) {
        return Malformed("hist", line);
      }
      hist.upper_bounds.reserve(bounds);
      for (size_t i = 0; i < bounds; ++i) {
        double edge = 0.0;
        if (!ParseFiniteDouble(tokens[5 + i], edge)) {
          return Malformed("hist bound", line);
        }
        hist.upper_bounds.push_back(edge);
      }
      hist.counts.reserve(bounds + 1);
      for (size_t i = 0; i <= bounds; ++i) {
        uint64_t count = 0;
        if (!ParseUint64(tokens[5 + bounds + i], count)) {
          return Malformed("hist count", line);
        }
        hist.counts.push_back(count);
      }
      telemetry.metrics.histograms.emplace_back(std::move(name).value(),
                                                std::move(hist));
    } else if (tokens[0] == "event" && tokens.size() >= 8) {
      if (telemetry.events.size() >= kMaxTraceEvents ||
          tokens[1].size() > kMaxNameBytes) {
        return Malformed("event", line);
      }
      Result<std::string> name = DecodeStatsToken(tokens[1]);
      if (!name.ok()) return name.status();
      obs::TraceEvent event;
      event.name = std::move(name).value();
      long long tid = 0;
      uint64_t args = 0;
      if (!ParseFiniteDouble(tokens[2], event.ts_us) ||
          !ParseFiniteDouble(tokens[3], event.dur_us) ||
          !ParseInt(tokens[4], 0, static_cast<long long>(kMaxThreads) - 1,
                    tid) ||
          !ParseUint64(tokens[5], event.span_id) ||
          !ParseUint64(tokens[6], event.parent_span_id) ||
          !ParseUint64(tokens[7], args) || args > kMaxSpanArgs) {
        return Malformed("event", line);
      }
      event.tid = static_cast<int>(tid);
      if (tokens.size() != 8 + 2 * args) return Malformed("event", line);
      event.args.reserve(args);
      for (size_t i = 0; i < args; ++i) {
        const std::string& key_token = tokens[8 + 2 * i];
        if (key_token.size() > kMaxNameBytes) return Malformed("event", line);
        Result<std::string> key = DecodeStatsToken(key_token);
        if (!key.ok()) return key.status();
        long long value = 0;
        if (!ParseInt(tokens[9 + 2 * i], LLONG_MIN, LLONG_MAX, value)) {
          return Malformed("event arg", line);
        }
        event.args.emplace_back(std::move(key).value(), value);
      }
      telemetry.events.push_back(std::move(event));
    } else {
      return Malformed("stats", line);
    }
  }
  if (!saw_end) {
    return Status::InvalidArgument("stats payload missing end marker");
  }
  return telemetry;
}

}  // namespace colscope::net
