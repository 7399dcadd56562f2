#include "common/fault_injector.h"

#include "common/parse.h"
#include "common/rng.h"
#include "common/strings.h"

namespace colscope {

namespace {

Status SetProbability(const std::string& key, const std::string& value,
                      double& slot) {
  double p = 0.0;
  if (!ParseFiniteDouble(value, p) || p < 0.0 || p > 1.0) {
    return Status::InvalidArgument("fault probability for '" + key +
                                   "' must be in [0, 1], got: " + value);
  }
  slot = p;
  return Status::Ok();
}

}  // namespace

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kStale:
      return "stale";
    case FaultKind::kPartition:
      return "partition";
  }
  return "unknown";
}

Result<FaultProfile> ParseFaultSpec(const std::string& spec) {
  FaultProfile profile;
  for (const std::string& pair : SplitString(spec, ",")) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault spec entry is not key=value: " +
                                     pair);
    }
    const std::string key(StripAsciiWhitespace(pair.substr(0, eq)));
    const std::string value(StripAsciiWhitespace(pair.substr(eq + 1)));
    if (key == "drop") {
      COLSCOPE_RETURN_IF_ERROR(
          SetProbability(key, value, profile.drop_probability));
    } else if (key == "delay") {
      COLSCOPE_RETURN_IF_ERROR(
          SetProbability(key, value, profile.delay_probability));
    } else if (key == "truncate") {
      COLSCOPE_RETURN_IF_ERROR(
          SetProbability(key, value, profile.truncate_probability));
    } else if (key == "corrupt") {
      COLSCOPE_RETURN_IF_ERROR(
          SetProbability(key, value, profile.corrupt_probability));
    } else if (key == "stale") {
      COLSCOPE_RETURN_IF_ERROR(
          SetProbability(key, value, profile.stale_probability));
    } else if (key == "seed") {
      if (!ParseUint64(value, profile.seed)) {
        return Status::InvalidArgument("malformed fault seed: " + value);
      }
    } else if (key == "drop-from") {
      uint64_t index = 0;
      if (!ParseUint64(value, index) || index > 0x7fffffffULL) {
        return Status::InvalidArgument("malformed drop-from index: " + value);
      }
      profile.drop_from = static_cast<int>(index);
    } else if (key == "partition-from") {
      uint64_t index = 0;
      if (!ParseUint64(value, index) || index > 0x7fffffffULL) {
        return Status::InvalidArgument("malformed partition-from index: " +
                                       value);
      }
      profile.partition_from = static_cast<int>(index);
    } else if (key == "base-latency") {
      if (!ParseFiniteDouble(value, profile.base_latency_ms) ||
          profile.base_latency_ms < 0.0) {
        return Status::InvalidArgument("malformed base-latency: " + value);
      }
    } else if (key == "delay-latency") {
      if (!ParseFiniteDouble(value, profile.delay_latency_ms) ||
          profile.delay_latency_ms < 0.0) {
        return Status::InvalidArgument("malformed delay-latency: " + value);
      }
    } else {
      return Status::InvalidArgument("unknown fault spec key: " + key);
    }
  }
  return profile;
}

FaultInjector::Decision FaultInjector::Decide(uint64_t publisher,
                                              uint64_t consumer,
                                              uint64_t attempt,
                                              size_t payload_size) const {
  // Derive an independent stream per (publisher, consumer, attempt) so
  // the decision does not depend on the order fetches are issued in.
  uint64_t state = profile_.seed;
  state += 0x9e3779b97f4a7c15ULL * (publisher + 1);
  SplitMix64(state);
  state += 0xbf58476d1ce4e5b9ULL * (consumer + 1);
  SplitMix64(state);
  state += 0x94d049bb133111ebULL * (attempt + 1);
  Rng rng(SplitMix64(state));

  Decision decision;
  decision.latency_ms = profile_.base_latency_ms * (0.5 + rng.NextDouble());

  if (profile_.drop_from >= 0 &&
      publisher == static_cast<uint64_t>(profile_.drop_from)) {
    decision.kind = FaultKind::kDrop;
    return decision;
  }

  const double u = rng.NextDouble();
  double threshold = profile_.drop_probability;
  if (u < threshold) {
    decision.kind = FaultKind::kDrop;
    return decision;
  }
  threshold += profile_.delay_probability;
  if (u < threshold) {
    decision.kind = FaultKind::kDelay;
    decision.latency_ms += profile_.delay_latency_ms;
    return decision;
  }
  threshold += profile_.truncate_probability;
  if (u < threshold) {
    decision.kind = FaultKind::kTruncate;
    decision.truncate_at =
        payload_size > 0 ? rng.NextBounded(payload_size) : 0;
    return decision;
  }
  threshold += profile_.corrupt_probability;
  if (u < threshold) {
    decision.kind = FaultKind::kCorrupt;
    decision.corrupt_pos =
        payload_size > 0 ? rng.NextBounded(payload_size) : 0;
    decision.corrupt_mask = static_cast<uint8_t>(1 + rng.NextBounded(255));
    return decision;
  }
  threshold += profile_.stale_probability;
  if (u < threshold) {
    decision.kind = FaultKind::kStale;
    return decision;
  }
  return decision;
}

}  // namespace colscope
