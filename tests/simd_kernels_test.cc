// The SIMD dispatch contract, end to end: every double-precision kernel
// of every compiled-in table is bit-identical to the scalar reference
// (the canonical 16-lane reduction tree; dot_columns also to `dot` over
// each gathered column), the int8 kernels are exact
// integer arithmetic, ForceMode/COLSCOPE_FORCE_SCALAR steer dispatch,
// dot_fast stays within its forward error bound, the quantized
// signature store round-trips within its error bounds, and the
// quantized prefilters never change what the exact matchers return.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "datasets/toy.h"
#include "embed/hashed_encoder.h"
#include "embed/quantized_store.h"
#include "linalg/matrix.h"
#include "linalg/simd/kernels.h"
#include "linalg/stats.h"
#include "matching/flat_index.h"
#include "matching/token_blocking.h"
#include "scoping/signatures.h"

namespace colscope::linalg::simd {
namespace {

/// Lengths that straddle every boundary the kernels care about: empty,
/// sub-lane tails, exact lane multiples, the AVX2 dot_fast 16-wide
/// body, the int8 32-wide body, and signature-sized spans.
const size_t kLengths[] = {0,  1,  2,  3,  5,  7,  8,  9,  15, 16,  17,
                           31, 32, 33, 63, 64, 65, 96, 100, 255, 256,
                           257, 767, 768, 769};

std::vector<double> RandomSpan(size_t n, uint64_t seed) {
  std::vector<double> v(n);
  Rng rng(seed);
  for (double& x : v) x = rng.NextGaussian();
  return v;
}

std::vector<int8_t> RandomCodes(size_t n, uint64_t seed) {
  std::vector<int8_t> v(n);
  Rng rng(seed);
  for (int8_t& x : v) {
    x = static_cast<int8_t>(static_cast<int>(rng.NextBounded(255)) - 127);
  }
  return v;
}

/// Every table this build can run: scalar always, native when the host
/// supports it.
std::vector<const KernelTable*> RunnableTables() {
  std::vector<const KernelTable*> tables = {&ScalarKernels()};
  if (NativeKernels() != nullptr) tables.push_back(NativeKernels());
  return tables;
}

TEST(SimdKernelsTest, DoubleKernelsBitIdenticalToScalarAcrossLengths) {
  const KernelTable& scalar = ScalarKernels();
  for (const KernelTable* table : RunnableTables()) {
    for (size_t n : kLengths) {
      const auto a = RandomSpan(n, 1000 + n);
      const auto b = RandomSpan(n, 2000 + n);
      EXPECT_EQ(table->dot(a.data(), b.data(), n),
                scalar.dot(a.data(), b.data(), n))
          << table->name << " dot n=" << n;
      EXPECT_EQ(table->squared_l2(a.data(), b.data(), n),
                scalar.squared_l2(a.data(), b.data(), n))
          << table->name << " squared_l2 n=" << n;
      double d1, na1, nb1, d2, na2, nb2;
      table->cosine_terms(a.data(), b.data(), n, &d1, &na1, &nb1);
      scalar.cosine_terms(a.data(), b.data(), n, &d2, &na2, &nb2);
      EXPECT_EQ(d1, d2) << table->name << " cosine dot n=" << n;
      EXPECT_EQ(na1, na2) << table->name << " cosine norm2_a n=" << n;
      EXPECT_EQ(nb1, nb2) << table->name << " cosine norm2_b n=" << n;
    }
  }
}

TEST(SimdKernelsTest, DoubleKernelsBitIdenticalOnUnalignedSpans) {
  // Offset views of an over-allocated buffer shift the base pointer off
  // every 64/32/16-byte boundary; results must not depend on alignment.
  const size_t n = 768;
  const auto a = RandomSpan(n + 8, 31);
  const auto b = RandomSpan(n + 8, 32);
  const KernelTable& scalar = ScalarKernels();
  for (const KernelTable* table : RunnableTables()) {
    for (size_t off = 0; off < 8; ++off) {
      EXPECT_EQ(table->dot(a.data() + off, b.data() + off, n),
                scalar.dot(a.data() + off, b.data() + off, n))
          << table->name << " offset=" << off;
      EXPECT_EQ(table->squared_l2(a.data() + off, b.data() + off, n),
                scalar.squared_l2(a.data() + off, b.data() + off, n))
          << table->name << " offset=" << off;
    }
  }
}

/// The raw bits of a double, so a +0.0 / -0.0 mismatch fails too.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(SimdKernelsTest, DotColumnsMatchesScalarTableAndGatheredColumnDots) {
  // k straddles the 16-lane body (none, exactly one, one plus a tail,
  // several); d covers the AVX2 sixteen- and four-column steps with and
  // without a column tail. Offset views shift `b` and `out` off every vector
  // boundary, and sentinels around `out` catch a write outside [0, d).
  const KernelTable& scalar = ScalarKernels();
  const size_t ks[] = {0, 1, 3, 15, 16, 17, 31, 32, 33, 100};
  const size_t ds[] = {1, 3, 4, 5, 7, 23, 768};
  const double kSentinel = -12345.5;
  for (const KernelTable* table : RunnableTables()) {
    for (size_t k : ks) {
      for (size_t d : ds) {
        const auto a = RandomSpan(k, 3000 + 10 * k + d);
        const auto b = RandomSpan(k * d + 8, 4000 + 10 * k + d);
        for (size_t off : {size_t{0}, size_t{1}, size_t{3}}) {
          const double* matrix = b.data() + off;
          std::vector<double> got(d + 8, kSentinel);
          std::vector<double> want(d + 8, kSentinel);
          table->dot_columns(a.data(), matrix, k, d, got.data() + off);
          scalar.dot_columns(a.data(), matrix, k, d, want.data() + off);
          std::vector<double> column(k);
          for (size_t c = 0; c < d; ++c) {
            for (size_t t = 0; t < k; ++t) column[t] = matrix[t * d + c];
            const double gathered = scalar.dot(a.data(), column.data(), k);
            EXPECT_EQ(Bits(got[off + c]), Bits(want[off + c]))
                << table->name << " k=" << k << " d=" << d << " c=" << c
                << " off=" << off;
            EXPECT_EQ(Bits(got[off + c]), Bits(gathered))
                << table->name << " k=" << k << " d=" << d << " c=" << c
                << " off=" << off;
          }
          for (size_t i = 0; i < off; ++i) EXPECT_EQ(got[i], kSentinel);
          for (size_t i = off + d; i < got.size(); ++i) {
            EXPECT_EQ(got[i], kSentinel) << table->name << " wrote past d";
          }
        }
      }
    }
  }
}

TEST(SimdKernelsTest, DotColumnsKeepsTheTreesPositiveZero) {
  // Every lane starts at +0.0, so a column whose products are all -0.0
  // sums to +0.0 — as `dot` does — on every table. k = 16 fills every
  // lane (an empty +0.0 lane would hide a -0.0 one in the fold), and
  // d = 22 runs the sixteen-column, four-column and scalar steps.
  const size_t k = 16;
  const size_t d = 22;
  const std::vector<double> a(k, -0.0);
  const std::vector<double> b(k * d, 1.0);
  for (const KernelTable* table : RunnableTables()) {
    std::vector<double> out(d, 1.0);
    table->dot_columns(a.data(), b.data(), k, d, out.data());
    for (size_t c = 0; c < d; ++c) {
      EXPECT_EQ(Bits(out[c]), Bits(table->dot(a.data(), b.data(), k)))
          << table->name << " c=" << c;
      EXPECT_EQ(Bits(out[c]), Bits(0.0)) << table->name << " c=" << c;
    }
  }
}

TEST(SimdKernelsTest, CosineTermsMatchesThreeSeparateKernelCalls) {
  for (const KernelTable* table : RunnableTables()) {
    for (size_t n : {size_t{7}, size_t{64}, size_t{768}}) {
      const auto a = RandomSpan(n, 71 + n);
      const auto b = RandomSpan(n, 72 + n);
      double d, na, nb;
      table->cosine_terms(a.data(), b.data(), n, &d, &na, &nb);
      EXPECT_EQ(d, table->dot(a.data(), b.data(), n)) << table->name;
      EXPECT_EQ(na, table->dot(a.data(), a.data(), n)) << table->name;
      EXPECT_EQ(nb, table->dot(b.data(), b.data(), n)) << table->name;
    }
  }
}

TEST(SimdKernelsTest, Int8KernelsExactAcrossLengths) {
  // Integer arithmetic has one right answer; every table must return it.
  for (const KernelTable* table : RunnableTables()) {
    for (size_t n : kLengths) {
      const auto a = RandomCodes(n, 300 + n);
      const auto b = RandomCodes(n, 400 + n);
      int64_t dot = 0, l2 = 0;
      for (size_t i = 0; i < n; ++i) {
        dot += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
        const int32_t d =
            static_cast<int32_t>(a[i]) - static_cast<int32_t>(b[i]);
        l2 += d * d;
      }
      EXPECT_EQ(table->dot_i8(a.data(), b.data(), n), dot)
          << table->name << " n=" << n;
      EXPECT_EQ(table->squared_l2_i8(a.data(), b.data(), n), l2)
          << table->name << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, Int8KernelsSaturatedExtremesDoNotOverflow) {
  // All-(-127) against all-127 maximizes every intermediate product;
  // a long span would overflow a careless 32-bit accumulation.
  const size_t n = 1 << 20;
  std::vector<int8_t> lo(n, -127), hi(n, 127);
  const int64_t expect_dot = -127ll * 127ll * static_cast<int64_t>(n);
  const int64_t expect_l2 = 254ll * 254ll * static_cast<int64_t>(n);
  for (const KernelTable* table : RunnableTables()) {
    EXPECT_EQ(table->dot_i8(lo.data(), hi.data(), n), expect_dot)
        << table->name;
    EXPECT_EQ(table->squared_l2_i8(lo.data(), hi.data(), n), expect_l2)
        << table->name;
  }
}

TEST(SimdKernelsTest, DotFastStaysWithinForwardErrorBoundOfDot) {
  // dot_fast is off the determinism contract but must stay numerically
  // honest: both the treewise dot and the FMA dot satisfy the standard
  // forward error bound |computed - true| <= n*eps*sum|a[i]*b[i]|, so
  // their difference is bounded by twice that. A raw ulp bound is the
  // wrong gate here — when the true dot lands near zero (cancellation),
  // the ulp distance blows up while the absolute error stays tiny.
  for (const KernelTable* table : RunnableTables()) {
    for (size_t n : {size_t{16}, size_t{100}, size_t{768}}) {
      const auto a = RandomSpan(n, 500 + n);
      const auto b = RandomSpan(n, 600 + n);
      const double exact = table->dot(a.data(), b.data(), n);
      const double fast = table->dot_fast(a.data(), b.data(), n);
      double absdot = 0.0;
      for (size_t i = 0; i < n; ++i) absdot += std::fabs(a[i] * b[i]);
      const double bound = 2.0 * static_cast<double>(n) *
                           std::numeric_limits<double>::epsilon() * absdot;
      EXPECT_LE(std::fabs(exact - fast), bound) << table->name << " n=" << n;
    }
  }
}

TEST(SimdDispatchTest, ForceModeOverridesAndRejects) {
  ASSERT_TRUE(ForceMode("scalar").ok());
  EXPECT_STREQ(ActiveName(), "scalar");
  ASSERT_TRUE(ForceMode("native").ok());
  if (NativeKernels() != nullptr) {
    EXPECT_STREQ(ActiveName(), NativeKernels()->name);
  } else {
    // "native" on a scalar-only host keeps scalar gracefully.
    EXPECT_STREQ(ActiveName(), "scalar");
  }
  EXPECT_FALSE(ForceMode("avx512").ok());
  EXPECT_FALSE(ForceMode("").ok());
  ResetDispatchForTesting();
}

TEST(SimdDispatchTest, EnvVarForcesScalar) {
  ResetDispatchForTesting();
  ASSERT_EQ(setenv("COLSCOPE_FORCE_SCALAR", "1", 1), 0);
  EXPECT_STREQ(ActiveName(), "scalar");
  ASSERT_EQ(unsetenv("COLSCOPE_FORCE_SCALAR"), 0);
  ResetDispatchForTesting();
  if (NativeKernels() != nullptr) {
    EXPECT_STREQ(ActiveName(), NativeKernels()->name);
  } else {
    EXPECT_STREQ(ActiveName(), "scalar");
  }
}

TEST(SimdDispatchTest, StatsEntryPointsIdenticalUnderBothModes) {
  // The public linalg:: wrappers are what the pipeline calls; forcing
  // the mode around them must never change a bit of their output.
  const auto a = RandomSpan(768, 9001);
  const auto b = RandomSpan(768, 9002);
  ASSERT_TRUE(ForceMode("native").ok());
  const double dot_native = linalg::Dot(a, b);
  const double l2_native = linalg::SquaredL2Distance(a, b);
  const double cos_native = linalg::CosineSimilarity(a, b);
  const double mse_native = linalg::MeanSquaredError(a, b);
  ASSERT_TRUE(ForceMode("scalar").ok());
  EXPECT_EQ(linalg::Dot(a, b), dot_native);
  EXPECT_EQ(linalg::SquaredL2Distance(a, b), l2_native);
  EXPECT_EQ(linalg::CosineSimilarity(a, b), cos_native);
  EXPECT_EQ(linalg::MeanSquaredError(a, b), mse_native);
  ResetDispatchForTesting();
}

linalg::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  linalg::Matrix m(rows, cols);
  Rng rng(seed);
  for (double& v : m.data()) v = rng.NextGaussian();
  return m;
}

TEST(QuantizedStoreTest, StorageIsAlignedAndPadded) {
  const auto m = RandomMatrix(5, 100, 11);
  const embed::QuantizedSignatureStore store(m);
  EXPECT_EQ(store.rows(), 5u);
  EXPECT_EQ(store.cols(), 100u);
  EXPECT_EQ(store.stride() % 64, 0u);
  EXPECT_GE(store.stride(), store.cols());
  for (size_t r = 0; r < store.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(store.RowCodes(r)) % 64, 0u)
        << "row " << r;
    for (size_t c = store.cols(); c < store.stride(); ++c) {
      EXPECT_EQ(store.RowCodes(r)[c], 0) << "padding row " << r;
    }
  }
}

TEST(QuantizedStoreTest, RoundTripErrorWithinHalfScalePerElement) {
  const auto m = RandomMatrix(8, 768, 22);
  const embed::QuantizedSignatureStore store(m);
  for (size_t r = 0; r < store.rows(); ++r) {
    const double scale = store.RowScale(r);
    ASSERT_GT(scale, 0.0);
    for (size_t c = 0; c < store.cols(); ++c) {
      const double dequant = scale * static_cast<double>(store.RowCodes(r)[c]);
      EXPECT_NEAR(dequant, m.RowPtr(r)[c], scale * 0.5 + 1e-12)
          << "(" << r << ", " << c << ")";
    }
  }
}

TEST(QuantizedStoreTest, ApproxDotWithinDocumentedBound) {
  // Wide pair sweep at the paper's dimensionality: with 64 rows of
  // 768-dim data the quantization errors across elements accumulate
  // enough that a bound stated in the wrong norm (the L2 norm is too
  // small by up to sqrt(cols)) fails here — keep this sweep large.
  const auto m = RandomMatrix(64, 768, 33);
  const embed::QuantizedSignatureStore store(m);
  std::vector<int8_t> qcodes;
  for (size_t r = 0; r < store.rows(); ++r) {
    for (size_t s = 0; s < store.rows(); ++s) {
      const double exact = linalg::Dot(m.RowSpan(r), m.RowSpan(s));
      const double approx = store.ApproxDot(r, s);
      const double bound =
          store.DotErrorBound(r, store.RowScale(s), store.RowL1(s));
      EXPECT_LE(std::fabs(exact - approx), bound)
          << "(" << r << ", " << s << ")";
    }
  }
  // The query path quantizes identically to the build path.
  double qnorm2 = 0.0;
  double ql1 = 0.0;
  const double qscale =
      store.QuantizeQuery(m.RowSpan(0), &qcodes, &qnorm2, &ql1);
  EXPECT_EQ(qscale, store.RowScale(0));
  EXPECT_EQ(qnorm2, store.RowNorm2(0));
  EXPECT_EQ(ql1, store.RowL1(0));
  EXPECT_EQ(store.ApproxDot(1, qcodes.data(), qscale), store.ApproxDot(1, 0));
}

TEST(QuantizedStoreTest, ZeroRowsQuantizeToZeroAndStayFinite) {
  linalg::Matrix m(3, 64, 0.0);
  m.RowPtr(1)[5] = 2.0;
  const embed::QuantizedSignatureStore store(m);
  EXPECT_EQ(store.RowScale(0), 0.0);
  EXPECT_EQ(store.ApproxDot(0, 1), 0.0);
  std::vector<int8_t> qcodes;
  double qnorm2 = 0.0;
  const double qscale = store.QuantizeQuery(m.RowSpan(0), &qcodes, &qnorm2);
  EXPECT_EQ(qscale, 0.0);
  EXPECT_EQ(qnorm2, 0.0);
  EXPECT_EQ(store.ApproxCosine(1, qcodes.data(), qscale, qnorm2), 0.0);
}

TEST(QuantizedFlatIndexTest, PerfectRecallOnSignatureCorpus) {
  // Real (toy-scenario) signatures: the quantized path with default
  // rescoring must return exactly the exact index's top-k lists here —
  // unit-norm 768-dim signatures are far apart relative to int8 error.
  const auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  const linalg::Matrix& vectors = signatures.signatures;
  const matching::FlatL2Index exact(vectors);
  const matching::FlatL2Index quant(
      vectors, matching::FlatL2Index::Options{.quantized = true});
  ASSERT_TRUE(quant.quantized());
  ASSERT_FALSE(exact.quantized());
  for (size_t q = 0; q < vectors.rows(); ++q) {
    const linalg::Vector query = vectors.Row(q);
    EXPECT_EQ(quant.Search(query, 5), exact.Search(query, 5)) << "query " << q;
  }
}

TEST(QuantizedFlatIndexTest, DegeneratePoolSizesStayExact) {
  const auto m = RandomMatrix(10, 64, 44);
  const matching::FlatL2Index exact(m);
  const matching::FlatL2Index quant(
      m, matching::FlatL2Index::Options{.quantized = true,
                                        .rescore_factor = 1});
  const linalg::Vector query = m.Row(3);
  // k >= n: the pool covers everything, so even factor 1 is exact.
  EXPECT_EQ(quant.Search(query, 10), exact.Search(query, 10));
  EXPECT_EQ(quant.Search(query, 20), exact.Search(query, 20));
  EXPECT_EQ(quant.Search(query, 0), exact.Search(query, 0));
}

TEST(QuantizedTokenBlockingTest, QuantizedPrefilterPreservesMatchesExactly) {
  const auto scenario = datasets::BuildToyScenario();
  embed::HashedLexiconEncoder encoder;
  const auto signatures = scoping::BuildSignatures(scenario.set, encoder);
  const std::vector<bool> active(signatures.size(), true);
  for (double threshold : {0.3, 0.6, 0.9}) {
    const matching::TokenBlockedSimMatcher exact(threshold);
    const matching::TokenBlockedSimMatcher quant(threshold,
                                                 /*quantized=*/true);
    EXPECT_EQ(quant.Match(signatures, active), exact.Match(signatures, active))
        << "threshold " << threshold;
  }
}

}  // namespace
}  // namespace colscope::linalg::simd
