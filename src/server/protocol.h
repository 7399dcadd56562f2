#ifndef COLSCOPE_SERVER_PROTOCOL_H_
#define COLSCOPE_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"

namespace colscope::server {

/// Hard cap on schemas per scope request; mirrors the assign codec's
/// schema cap so a hostile count can never size an allocation.
inline constexpr size_t kMaxRequestSchemas = 4096;

/// One schema shipped inside a kScopeRequest: the raw source text, how
/// to parse it, and the schema name the cold CLI would have derived from
/// the file basename — shipping the name keeps warm server reports
/// byte-identical to cold CLI runs.
using ScopeRequestSchema = pipeline::SchemaSource;

/// kScopeRequest payload: everything one pipeline run needs, expressed
/// with the same parameter names and defaults as the CLI flags so a
/// request is a faithful serialization of a cold invocation.
struct ScopeRequest {
  std::vector<ScopeRequestSchema> schemas;
  std::string scoper = "pca";    ///< pca|neural|global|none.
  std::string matcher = "sim";   ///< sim|cluster|lsh|str.
  double param = -1.0;           ///< Matcher parameter; < 0 = default.
  double v = 0.8;                ///< Explained-variance target.
  double keep_portion = 0.5;     ///< For the global-scoping baseline.
  /// Per-request deadline in milliseconds, measured from admission (so
  /// queue wait counts against it). Non-positive defers to the server's
  /// --request-deadline-ms default.
  double deadline_ms = 0.0;
  /// Frame v2 trace context (optional line, all-zero = untraced).
  net::TraceContext trace;
};

std::string EncodeScopeRequest(const ScopeRequest& request);
Result<ScopeRequest> DecodeScopeRequest(const std::string& payload);

/// A colscoped's lifecycle state and request accounting, for probes and
/// the drain harness. Not a wire payload of its own: it is a view over
/// the kStats reply (see HealthFromMetrics).
struct HealthInfo {
  std::string state;  ///< "serving" or "draining".
  size_t queue_depth = 0;
  size_t inflight = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
};

/// Reads HealthInfo from a colscoped metrics snapshot: the
/// server.requests_* counters and the server.queue_depth /
/// server.inflight / server.draining gauges. InvalidArgument when the
/// snapshot holds no server.draining gauge, i.e. it did not come from a
/// colscoped.
Result<HealthInfo> HealthFromMetrics(const obs::MetricsSnapshot& metrics);

}  // namespace colscope::server

#endif  // COLSCOPE_SERVER_PROTOCOL_H_
