#ifndef COLSCOPE_COMMON_CHECKSUM_H_
#define COLSCOPE_COMMON_CHECKSUM_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace colscope {

/// XXH64 of `data` with `seed`, as the published xxHash specification
/// defines it: four 64-bit lanes over 32-byte stripes of little-endian
/// words, then the tail and avalanche steps. It reads eight bytes per
/// multiply on four independent chains, so a cache payload verifies at
/// memory speed. Hashes chain through the seed:
/// Checksum64(b, Checksum64(a)) fingerprints the sequence (a, b) without
/// materializing a+b (it is not the hash of the concatenation). Not
/// cryptographic — it detects torn or bit-flipped cache payloads and
/// fingerprints configs, schemas and models; it does not resist an
/// adversary.
uint64_t Checksum64(std::string_view data, uint64_t seed = 0);

/// 16 lowercase hex digits of `value` — the stable textual checksum form
/// written into artifact-cache entry headers and object names.
std::string Checksum64Hex(uint64_t value);

}  // namespace colscope

#endif  // COLSCOPE_COMMON_CHECKSUM_H_
