#ifndef COLSCOPE_TESTS_MUTATION_PASS_H_
#define COLSCOPE_TESTS_MUTATION_PASS_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace colscope {

/// One seeded mutation of `bytes`: a bit flip, a truncation, a one-byte
/// insertion, or an edit of a header field (a digit before `header_end`
/// replaced, duplicated or dropped).
inline std::string Mutate(const std::string& bytes, size_t header_end,
                          Rng& rng) {
  std::string out = bytes;
  switch (rng.NextBounded(4)) {
    case 0:
      out[rng.NextBounded(out.size())] ^=
          static_cast<char>(1u << rng.NextBounded(8));
      break;
    case 1:
      out.resize(rng.NextBounded(out.size()));
      break;
    case 2:
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(
                                   rng.NextBounded(out.size() + 1)),
                 static_cast<char>(rng.NextBounded(256)));
      break;
    default: {
      std::vector<size_t> digits;
      for (size_t i = 0; i < header_end; ++i) {
        if (out[i] >= '0' && out[i] <= '9') digits.push_back(i);
      }
      if (digits.empty()) break;
      const size_t at = digits[rng.NextBounded(digits.size())];
      switch (rng.NextBounded(3)) {
        case 0:
          out[at] = static_cast<char>('0' + rng.NextBounded(10));
          break;
        case 1:
          out.insert(at, 1, rng.NextBounded(2) == 0 ? '0' : out[at]);
          break;
        default:
          out.erase(at, 1);
      }
    }
  }
  return out;
}

/// Feeds `rounds` mutations of `valid` to `decode_and_reencode`, which
/// returns nullopt when its decoder rejects the input and the value's
/// re-encoding otherwise: every accepted input must re-encode to itself.
/// Returns how many inputs the decoder accepted.
inline size_t MutationPass(
    const std::string& name, const std::string& valid, size_t header_end,
    int rounds, uint64_t seed,
    const std::function<std::optional<std::string>(const std::string&)>&
        decode_and_reencode) {
  Rng rng(seed);
  size_t accepted = 0;
  size_t mismatches = 0;
  std::optional<int> first_mismatch;
  for (int round = 0; round < rounds; ++round) {
    const std::string mutated = Mutate(valid, header_end, rng);
    const std::optional<std::string> reencoded = decode_and_reencode(mutated);
    if (!reencoded) continue;
    ++accepted;
    if (*reencoded != mutated) {
      ++mismatches;
      if (!first_mismatch) first_mismatch = round;
    }
  }
  EXPECT_EQ(mismatches, 0u) << name << ": an accepted mutation did not "
                            << "re-encode to itself (first at round "
                            << first_mismatch.value_or(-1) << ")";
  return accepted;
}

}  // namespace colscope

#endif  // COLSCOPE_TESTS_MUTATION_PASS_H_
