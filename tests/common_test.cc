#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace colscope {
namespace {

// --- Status / Result ------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, FactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_EQ(s.ToString(), "not_found: missing thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// --- Strings ---------------------------------------------------------------

TEST(StringsTest, SplitStringBasic) {
  EXPECT_EQ(SplitString("a,b,,c", ","),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("", ","), std::vector<std::string>{});
  EXPECT_EQ(SplitString("one", ","), std::vector<std::string>{"one"});
}

TEST(StringsTest, SplitStringMultipleDelims) {
  EXPECT_EQ(SplitString("a b\tc", " \t"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringsTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"one"}, ","), "one");
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLowerAscii("MiXeD_09"), "mixed_09");
  EXPECT_EQ(ToUpperAscii("MiXeD_09"), "MIXED_09");
}

TEST(StringsTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y \n"), "x y");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace(" \t "), "");
}

TEST(StringsTest, AffixChecks) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("fo", "foo"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

// --- RNG --------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBounded(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // All buckets hit in 1000 draws.
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(SplitMix64(s1), SplitMix64(s2));
  // Advancing the state changes the output.
  EXPECT_NE(SplitMix64(s1), SplitMix64(s1));
}

// --- Checksum64 (XXH64) ---------------------------------------------------

/// XXH64 transcribed literally from the specification, one byte-assembled
/// little-endian word at a time — an independent reference for
/// Checksum64's memcpy loads and loop structure.
uint64_t ReferenceXxh64(std::string_view in, uint64_t seed) {
  constexpr uint64_t p1 = 0x9e3779b185ebca87ULL, p2 = 0xc2b2ae3d27d4eb4fULL,
                     p3 = 0x165667b19e3779f9ULL, p4 = 0x85ebca77c2b2ae63ULL,
                     p5 = 0x27d4eb2f165667c5ULL;
  const auto rotl = [](uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  };
  const auto word = [&](size_t at, size_t bytes) {
    uint64_t w = 0;
    for (size_t b = 0; b < bytes; ++b) {
      w |= uint64_t{static_cast<unsigned char>(in[at + b])} << (8 * b);
    }
    return w;
  };
  const auto round = [&](uint64_t acc, uint64_t lane) {
    return rotl(acc + lane * p2, 31) * p1;
  };
  size_t at = 0;
  uint64_t acc;
  if (in.size() >= 32) {
    uint64_t lanes[4] = {seed + p1 + p2, seed + p2, seed, seed - p1};
    while (in.size() - at >= 32) {
      for (uint64_t& lane : lanes) {
        lane = round(lane, word(at, 8));
        at += 8;
      }
    }
    acc = rotl(lanes[0], 1) + rotl(lanes[1], 7) + rotl(lanes[2], 12) +
          rotl(lanes[3], 18);
    for (uint64_t lane : lanes) acc = (acc ^ round(0, lane)) * p1 + p4;
  } else {
    acc = seed + p5;
  }
  acc += in.size();
  for (; in.size() - at >= 8; at += 8) {
    acc = rotl(acc ^ round(0, word(at, 8)), 27) * p1 + p4;
  }
  if (in.size() - at >= 4) {
    acc = rotl(acc ^ (word(at, 4) * p1), 23) * p2 + p3;
    at += 4;
  }
  for (; at < in.size(); ++at) acc = rotl(acc ^ (word(at, 1) * p5), 11) * p1;
  acc = (acc ^ (acc >> 33)) * p2;
  acc = (acc ^ (acc >> 29)) * p3;
  return acc ^ (acc >> 32);
}

/// `n` seeded pseudo-random bytes.
std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBounded(256));
  return out;
}

TEST(Checksum64Test, KnownAnswers) {
  // The specification's empty-input, seed-0 value, and the published
  // xxh64 digests of three short strings.
  EXPECT_EQ(Checksum64(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Checksum64("", 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Checksum64("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(Checksum64("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(Checksum64("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
  EXPECT_EQ(Checksum64Hex(0xef46db3751d8e999ULL), "ef46db3751d8e999");
  EXPECT_EQ(Checksum64Hex(1), "0000000000000001");
}

TEST(Checksum64Test, EveryLengthUpTo100MatchesTheSpecAtAnyAlignment) {
  // Lengths 0..100 reach every tail path (bytes, a 4-byte word, 8-byte
  // words) with zero, one, two and three 32-byte stripes before them.
  const std::string bytes = RandomBytes(100 + 7, 0xb17e5);
  std::set<uint64_t> seen;
  for (size_t len = 0; len <= 100; ++len) {
    const uint64_t want = ReferenceXxh64(std::string_view(bytes).substr(0, len),
                                         /*seed=*/0x5eed);
    for (size_t offset = 0; offset < 8; ++offset) {
      const std::string shifted = bytes.substr(offset, len);
      ASSERT_EQ(Checksum64(shifted, 0x5eed),
                ReferenceXxh64(shifted, 0x5eed))
          << "len " << len << " offset " << offset;
    }
    EXPECT_EQ(Checksum64(std::string_view(bytes).substr(0, len), 0x5eed),
              want);
    seen.insert(want);
  }
  EXPECT_EQ(seen.size(), 101u) << "two prefix lengths collided";
}

TEST(Checksum64Test, EverySingleBitFlipOfALargePayloadChangesIt) {
  // One signature block of the paper's shape: 27 rows x 768 doubles.
  const std::string payload = RandomBytes(27 * 768 * sizeof(double), 0xf11b);
  const uint64_t base = Checksum64(payload);
  EXPECT_EQ(base, ReferenceXxh64(payload, 0));
  Rng rng(0xb17f11b);
  std::string bent = payload;
  for (int flip = 0; flip < 1000; ++flip) {
    const size_t at = rng.NextBounded(bent.size());
    const char mask = static_cast<char>(1u << rng.NextBounded(8));
    bent[at] ^= mask;
    EXPECT_NE(Checksum64(bent), base) << "byte " << at << " flip " << flip;
    bent[at] ^= mask;
  }
  EXPECT_EQ(Checksum64(bent), base);
}

TEST(Checksum64Test, DistinctSeedsGiveDistinctValues) {
  for (const std::string_view input :
       {std::string_view(""), std::string_view("colscope"),
        std::string_view("a 32-byte stripe plus a short tail")}) {
    std::set<uint64_t> seen;
    for (uint64_t seed = 0; seed < 1000; ++seed) {
      seen.insert(Checksum64(input, seed * 0x9e3779b97f4a7c15ULL));
    }
    EXPECT_EQ(seen.size(), 1000u) << "input '" << input << "'";
  }
  // Chaining through the seed is order-sensitive.
  EXPECT_NE(Checksum64("b", Checksum64("a")), Checksum64("a", Checksum64("b")));
}

}  // namespace
}  // namespace colscope
