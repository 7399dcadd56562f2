#include "cache/artifact_cache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/checksum.h"
#include "common/parse.h"
#include "common/strings.h"
#include "obs/log.h"

namespace colscope::cache {

namespace fs = std::filesystem;

namespace {

constexpr char kCacheVersion[] = "colscope-cache v2";
constexpr char kVersionFile[] = "CACHE_VERSION";
constexpr char kEntryHeader[] = "colscope-cache-entry v1";
constexpr char kObjectsDir[] = "objects";
constexpr char kEntrySuffix[] = ".art";
// Entries larger than this are certainly not ours; bounds the allocation
// a corrupted byte count could request.
constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 31;

/// Parses exactly 16 lowercase hex digits into a uint64.
bool ParseHex64(std::string_view token, uint64_t& out) {
  if (token.size() != 16) return false;
  uint64_t value = 0;
  for (char c : token) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  out = value;
  return true;
}

/// Reads `path` fully into `out`, sized once from the file's length;
/// false when it cannot be opened or read.
bool ReadFileBytes(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0 || !in.seekg(0)) return false;
  out.resize(static_cast<size_t>(size));
  return static_cast<bool>(in.read(out.data(), size));
}

}  // namespace

CacheKeyBuilder::CacheKeyBuilder(std::string_view kind) : text_(kind) {}

CacheKeyBuilder& CacheKeyBuilder::AddHex(std::string_view name,
                                         uint64_t fingerprint) {
  text_ += StrFormat("|%.*s=%s", static_cast<int>(name.size()), name.data(),
                     Checksum64Hex(fingerprint).c_str());
  return *this;
}

CacheKeyBuilder& CacheKeyBuilder::AddText(std::string_view name,
                                          std::string_view value) {
  text_ += StrFormat("|%.*s=%.*s", static_cast<int>(name.size()), name.data(),
                     static_cast<int>(value.size()), value.data());
  return *this;
}

CacheKey CacheKeyBuilder::Build() const {
  return CacheKey{text_, Checksum64(text_)};
}

ArtifactCache::ArtifactCache(ArtifactCacheOptions options)
    : options_(std::move(options)), mu_(std::make_unique<std::mutex>()) {}

Result<ArtifactCache> ArtifactCache::Open(ArtifactCacheOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("cache directory must be non-empty");
  }
  std::error_code ec;
  fs::create_directories(options.dir + "/" + kObjectsDir, ec);
  if (ec) {
    return Status::Internal(StrFormat("cannot create cache dir %s: %s",
                                      options.dir.c_str(),
                                      ec.message().c_str()));
  }
  const std::string version_path = options.dir + "/" + kVersionFile;
  std::string stamp;
  if (ReadFileBytes(version_path, stamp)) {
    if (StripAsciiWhitespace(stamp) != kCacheVersion) {
      return Status::FailedPrecondition(StrFormat(
          "cache dir %s has incompatible version '%s' (expected '%s')",
          options.dir.c_str(),
          std::string(StripAsciiWhitespace(stamp)).c_str(), kCacheVersion));
    }
  } else {
    // Stamp through temp + rename like every other write, so two runs
    // opening the same fresh directory race benignly.
    const std::string tmp = version_path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        return Status::Internal("cannot stamp cache version: " + tmp);
      }
      out << kCacheVersion << '\n';
    }
    fs::rename(tmp, version_path, ec);
    if (ec) {
      std::remove(tmp.c_str());
      return Status::Internal(StrFormat("cannot publish %s: %s",
                                        version_path.c_str(),
                                        ec.message().c_str()));
    }
  }

  ArtifactCache cache(std::move(options));
  // Initial inventory: entry file sizes (envelope included) approximate
  // payload bytes closely enough for a soft cap.
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(
           cache.options_.dir + "/" + kObjectsDir, ec)) {
    if (entry.is_regular_file(ec) &&
        entry.path().extension() == kEntrySuffix) {
      total += entry.file_size(ec);
    }
  }
  cache.total_bytes_ = total;
  cache.SetBytesGauge();
  return cache;
}

std::string ArtifactCache::PathFor(const CacheKey& key) const {
  const std::string hex = Checksum64Hex(key.hash);
  return options_.dir + "/" + kObjectsDir + "/" + hex.substr(0, 2) + "/" +
         hex + kEntrySuffix;
}

Status ArtifactCache::Interrupted() const {
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    return Status::Cancelled("cache access cancelled");
  }
  if (options_.deadline.expired()) {
    return Status::DeadlineExceeded("run deadline expired before cache access");
  }
  return Status::Ok();
}

void ArtifactCache::Count(const char* name, uint64_t delta) {
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter(name).Increment(delta);
  }
}

void ArtifactCache::SetBytesGauge() {
  if (options_.metrics != nullptr) {
    options_.metrics->GetGauge("cache.bytes")
        .Set(static_cast<double>(total_bytes_));
  }
}

Result<std::string> ArtifactCache::Get(const CacheKey& key,
                                       const Accept& accept) {
  COLSCOPE_RETURN_IF_ERROR(Interrupted());
  obs::ScopedHistogramTimer timer(
      options_.metrics == nullptr
          ? nullptr
          : &options_.metrics->GetHistogram(
                "cache_lookup_ms", obs::ExponentialBuckets(0.01, 4.0, 10)));

  const std::string path = PathFor(key);
  const auto miss = [&](const char* why_counter,
                        const std::string& detail) -> Status {
    if (why_counter != nullptr) {
      Count(why_counter);
      COLSCOPE_LOG(Warn) << "cache entry " << path << " unusable ("
                         << detail << "); recomputing";
    }
    Count("cache.misses");
    return Status::NotFound("no cache entry for key: " + key.text);
  };

  std::string contents;
  if (!ReadFileBytes(path, contents)) return miss(nullptr, "");

  // The envelope lines are parsed in place; the payload is what remains.
  std::string_view rest = contents;
  std::string_view line;
  if (!ConsumeLine(rest, line) || line != kEntryHeader) {
    return miss("cache.corrupt", "bad entry header");
  }
  if (!ConsumeLine(rest, line) || !StartsWith(line, "key ")) {
    return miss("cache.corrupt", "missing key line");
  }
  const std::string_view stored_key = line.substr(4);
  if (!StartsWith(rest, "bytes ")) {
    return miss("cache.corrupt", "missing bytes line");
  }
  uint64_t declared_bytes = 0;
  if (!ConsumeCountLine(rest, "bytes", declared_bytes) ||
      declared_bytes > kMaxPayloadBytes) {
    return miss("cache.corrupt", "malformed byte count");
  }
  if (!ConsumeLine(rest, line) || !StartsWith(line, "checksum ")) {
    return miss("cache.corrupt", "missing checksum line");
  }
  uint64_t declared_sum = 0;
  if (!ParseHex64(line.substr(9), declared_sum)) {
    return miss("cache.corrupt", "malformed checksum");
  }
  if (rest.size() != declared_bytes) {
    return miss("cache.corrupt",
                StrFormat("payload is %zu bytes, envelope declares %llu",
                          rest.size(),
                          static_cast<unsigned long long>(declared_bytes)));
  }
  if (Checksum64(rest) != declared_sum) {
    return miss("cache.corrupt", "payload checksum mismatch");
  }
  // Integrity holds but the stored key differs: a 64-bit fingerprint
  // collision (or a cross-wired file). Treat as a miss; the subsequent
  // Put will overwrite this entry with the new key's artifact.
  if (stored_key != key.text) {
    return miss("cache.collisions",
                "key text mismatch (fingerprint collision)");
  }
  if (accept && !accept(rest)) {
    return miss("cache.corrupt", "payload rejected by its decoder");
  }

  // Refresh recency for LRU; best-effort (a read-only cache still hits).
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);

  Count("cache.hits");
  contents.erase(0, contents.size() - rest.size());
  return contents;
}

Status ArtifactCache::Put(const CacheKey& key, std::string_view payload) {
  COLSCOPE_RETURN_IF_ERROR(Interrupted());
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("cache payload exceeds the entry cap");
  }
  const std::string path = PathFor(key);

  std::string envelope;
  envelope.reserve(payload.size() + key.text.size() + 96);
  envelope += kEntryHeader;
  envelope += '\n';
  envelope += "key ";
  envelope += key.text;
  envelope += '\n';
  envelope += StrFormat("bytes %zu\n", payload.size());
  envelope += StrFormat("checksum %s\n",
                        Checksum64Hex(Checksum64(payload)).c_str());
  envelope += payload;

  std::lock_guard<std::mutex> lock(*mu_);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) {
    return Status::Internal(StrFormat("cannot create cache shard for %s: %s",
                                      path.c_str(), ec.message().c_str()));
  }
  uint64_t replaced = 0;
  if (fs::exists(path, ec)) replaced = fs::file_size(path, ec);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open cache temp file: " + tmp);
    }
    out.write(envelope.data(), static_cast<std::streamsize>(envelope.size()));
    out.flush();
    if (!out) {
      return Status::Internal("short write to cache temp file: " + tmp);
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::Internal(StrFormat("cannot publish cache entry %s: %s",
                                      path.c_str(), ec.message().c_str()));
  }
  total_bytes_ += envelope.size();
  total_bytes_ -= std::min(total_bytes_, replaced);
  Count("cache.writes");
  EvictToFit(path);
  SetBytesGauge();
  return Status::Ok();
}

void ArtifactCache::EvictToFit(const std::string& keep_path) {
  if (options_.max_bytes == 0 || total_bytes_ <= options_.max_bytes) return;

  struct Entry {
    fs::file_time_type mtime;
    std::string path;
    uint64_t size;
  };
  std::vector<Entry> entries;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(
           options_.dir + "/" + kObjectsDir, ec)) {
    if (!entry.is_regular_file(ec) ||
        entry.path().extension() != kEntrySuffix) {
      continue;
    }
    const std::string path = entry.path().string();
    if (path == keep_path) continue;
    entries.push_back({entry.last_write_time(ec), path, entry.file_size(ec)});
  }
  // Oldest first; path tie-break keeps the order deterministic when
  // mtime resolution lumps entries together.
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.path < b.path;
  });
  for (const Entry& entry : entries) {
    if (total_bytes_ <= options_.max_bytes) break;
    if (!fs::remove(entry.path, ec) || ec) continue;
    total_bytes_ -= std::min(total_bytes_, entry.size);
    Count("cache.evictions");
    COLSCOPE_LOG(Debug) << "evicted cache entry " << entry.path << " ("
                        << entry.size << " bytes)";
  }
}

uint64_t ArtifactCache::total_bytes() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return total_bytes_;
}

}  // namespace colscope::cache
