#ifndef COLSCOPE_COMMON_CHECKSUM_H_
#define COLSCOPE_COMMON_CHECKSUM_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace colscope {

/// FNV-1a 64-bit over `data`, seeded with `seed` (the FNV offset basis by
/// default) so hashes can be chained: Fnv1a64(b, Fnv1a64(a)) fingerprints
/// the concatenation a+b without materializing it. Not cryptographic —
/// used to detect torn or bit-flipped cache and frame payloads and to
/// fingerprint configs/datasets, not to resist an adversary.
uint64_t Fnv1a64(std::string_view data,
                 uint64_t seed = 0xcbf29ce484222325ULL);

/// 16 lowercase hex digits of `value` — the stable textual checksum form
/// written into artifact-cache entry headers.
std::string Fnv1a64Hex(uint64_t value);

}  // namespace colscope

#endif  // COLSCOPE_COMMON_CHECKSUM_H_
