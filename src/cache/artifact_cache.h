#ifndef COLSCOPE_CACHE_ARTIFACT_CACHE_H_
#define COLSCOPE_CACHE_ARTIFACT_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/cancellation.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace colscope::cache {

/// A content-addressed cache key: the canonical single-line key text
/// (kind plus every component that identifies the artifact) and its
/// Checksum64 (XXH64, common/checksum.h), which names the on-disk
/// object. The full text is stored inside each entry and verified on
/// every read, so a 64-bit hash collision degrades to a miss — never to
/// serving the wrong artifact.
struct CacheKey {
  std::string text;
  uint64_t hash = 0;
};

/// Builds a CacheKey incrementally: `kind` names the artifact family
/// ("sig", "model", "keep", "simblock") and each component is appended as
/// "name=value". Values must be single-line; fingerprints are rendered as
/// 16 hex digits.
class CacheKeyBuilder {
 public:
  explicit CacheKeyBuilder(std::string_view kind);

  CacheKeyBuilder& AddHex(std::string_view name, uint64_t fingerprint);
  CacheKeyBuilder& AddText(std::string_view name, std::string_view value);

  CacheKey Build() const;

 private:
  std::string text_;
};

struct ArtifactCacheOptions {
  /// Root directory; created (with a version stamp) on Open.
  std::string dir;
  /// Soft size cap over all object payloads; 0 means unbounded. When a
  /// Put pushes the total over the cap, least-recently-used entries are
  /// evicted until it fits (the entry just written is never evicted).
  uint64_t max_bytes = 0;
  /// Borrowed; may be null. Emits cache.hits / cache.misses /
  /// cache.evictions / cache.corrupt / cache.collisions counters, the
  /// cache.bytes gauge, and the cache_lookup_ms histogram.
  obs::MetricsRegistry* metrics = nullptr;
  /// Borrowed cooperative-cancellation token; may be null. A tripped
  /// token makes Get/Put return Cancelled without touching the disk.
  const CancellationToken* cancel = nullptr;
  /// Run deadline (default: none). An expired deadline makes Get/Put
  /// return DeadlineExceeded — a lookup storm cannot push a run past its
  /// time budget.
  Deadline deadline;
};

/// Content-addressed, checksummed, size-capped artifact store.
///
/// On-disk layout (versioned — an unrecognized version refuses to open
/// rather than misreading foreign files):
///   <dir>/CACHE_VERSION            "colscope-cache v2" (v1 directories,
///                                  checksummed with FNV-1a, are refused)
///   <dir>/objects/<hh>/<16hex>.art one entry per key, sharded by the
///                                  first hash byte (git-style)
/// Each entry is a five-line envelope followed by the payload verbatim:
///   colscope-cache-entry v1
///   key <canonical key text>
///   bytes <payload byte count>
///   checksum <16 hex digits, Checksum64 (XXH64) of the payload>
///   <payload>
/// Writes go to a sibling temp file followed by an atomic rename, so a
/// crash mid-write can never leave a torn entry under a live name.
///
/// Thread-compatible for Get (reads are independent); Put serializes on
/// an internal mutex because it maintains the byte total and runs LRU
/// eviction. Recency is tracked via file mtimes: every Get touches its
/// entry, and eviction removes oldest-first (ties broken by path so the
/// order is deterministic).
class ArtifactCache {
 public:
  /// Validates/creates the directory and version stamp and takes the
  /// initial size inventory. Fails (rather than silently misbehaving) on
  /// an unwritable directory or a version mismatch; callers are expected
  /// to degrade to uncached computation on failure.
  static Result<ArtifactCache> Open(ArtifactCacheOptions options);

  ArtifactCache(ArtifactCache&&) = default;
  ArtifactCache& operator=(ArtifactCache&&) = default;

  /// The payload decoder of a lookup: true when the payload decodes
  /// (the decoder keeps what it decoded), false to reject it.
  using Accept = std::function<bool(std::string_view payload)>;

  /// Looks up `key`. NotFound on a miss (counted cache.misses) — which
  /// includes corrupt, truncated, or hash-colliding entries and intact
  /// payloads that `accept` (when given) rejects (also counted
  /// cache.corrupt / cache.collisions); a cache read problem is never an
  /// error, just a reason to recompute. Cancelled / DeadlineExceeded when
  /// the run should stop instead of reading. A hit (counted cache.hits)
  /// returns the payload and refreshes the entry's recency.
  Result<std::string> Get(const CacheKey& key, const Accept& accept = {});

  /// Atomically persists `payload` under `key`, overwriting any previous
  /// entry, then enforces the size cap. Failures are real errors;
  /// callers typically log and continue (a run that cannot cache still
  /// completes).
  Status Put(const CacheKey& key, std::string_view payload);

  /// Sum of payload bytes currently stored (tracked, not re-scanned).
  uint64_t total_bytes() const;

  const std::string& dir() const { return options_.dir; }

  /// On-disk path of `key`'s entry — exposed so tests can corrupt,
  /// truncate, or cross-wire entries deliberately.
  std::string PathFor(const CacheKey& key) const;

 private:
  explicit ArtifactCache(ArtifactCacheOptions options);

  Status Interrupted() const;
  void Count(const char* name, uint64_t delta = 1);
  void SetBytesGauge();
  /// Drops least-recently-used entries until the total fits the cap.
  /// `keep_path` (the entry just written) is never evicted.
  void EvictToFit(const std::string& keep_path);

  ArtifactCacheOptions options_;
  std::unique_ptr<std::mutex> mu_;  ///< Guards puts + the byte total.
  uint64_t total_bytes_ = 0;
};

}  // namespace colscope::cache

#endif  // COLSCOPE_CACHE_ARTIFACT_CACHE_H_
