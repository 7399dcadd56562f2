#include "common/checksum.h"

#include <bit>
#include <cstring>

#include "common/strings.h"

namespace colscope {

namespace {

constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

// XXH64 reads little-endian words. Like the raw-double cache payloads
// (scoping/io_util.h), a big-endian build fails to compile rather than
// name and verify cache entries differently.
static_assert(std::endian::native == std::endian::little,
              "Checksum64 loads little-endian words");

/// Load of `Word` bytes at `p`, any alignment.
template <typename Word>
uint64_t Load(const char* p) {
  Word word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

uint64_t Round(uint64_t acc, uint64_t input) {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

uint64_t Checksum64(std::string_view data, uint64_t seed) {
  const char* p = data.data();
  const char* const end = p + data.size();
  uint64_t h;
  if (data.size() >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, Load<uint64_t>(p));
      v2 = Round(v2, Load<uint64_t>(p + 8));
      v3 = Round(v3, Load<uint64_t>(p + 16));
      v4 = Round(v4, Load<uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += data.size();
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ Round(0, Load<uint64_t>(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (Load<uint32_t>(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ (static_cast<unsigned char>(*p) * kPrime5), 11) *
        kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::string Checksum64Hex(uint64_t value) {
  return StrFormat("%016llx", static_cast<unsigned long long>(value));
}

}  // namespace colscope
