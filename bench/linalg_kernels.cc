// Kernel microbenchmarks for the linalg hot paths: the dispatched
// dot-per-cell Multiply vs the naive triple loop, the fused
// MultiplyTransposedB (A·Bᵀ) vs materializing the transpose, the
// runtime-dispatched 768-dim span kernels (dot / MSE) vs the
// scalar reference table, the PCA decode's one dot_columns call vs d
// per-column dots, the int8 quantized-store scan vs the double
// scan, quantized top-k recall on the paper corpora, and the Gram-trick
// PCA fit vs the forced covariance path. Every comparison also verifies
// the optimized kernel against its contract — bit-identity for the
// double kernels ("*_ok" cells), error bounds for int8, recall >= 0.98
// for the quantized index — so a speedup can never hide a numerics or
// quality change.
//
// Output: human tables on stdout plus three machine-readable files —
// BENCH_linalg_kernels.json (all rows, including the <name>_speedup
// ratio cells the regression gate checks), and the before/after pair
// BENCH_pca_fit_covariance.json / BENCH_pca_fit_gram.json. Rows whose
// speedup depends on the SIMD table carry a "simd_active" cell so the
// regression gate can skip the ratio on machines where dispatch fell
// back to scalar.
//
// Flags:
//   --smoke     tiny sizes for the ctest gate (seconds, not minutes)
//   --out DIR   directory for the BENCH_*.json files (default ".")
//   --reps N    interleaved samples per measurement, median kept (default 5)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "datasets/oc3.h"
#include "datasets/toy.h"
#include "embed/hashed_encoder.h"
#include "embed/quantized_store.h"
#include "linalg/matrix.h"
#include "linalg/pca.h"
#include "linalg/simd/kernels.h"
#include "matching/flat_index.h"
#include "scoping/signatures.h"

namespace {

using namespace colscope;

/// String-valued flag (bench_util only reads numeric flags).
std::string StringFlag(int argc, char** argv, const char* name,
                       const std::string& default_value) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return default_value;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timing sample: re-runs `fn` until at least `min_ms` accumulates,
/// then averages, so sub-millisecond kernels still time stably.
double SampleMs(const std::function<void()>& fn, double min_ms) {
  int iters = 0;
  const double start = NowMs();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = NowMs() - start;
  } while (elapsed < min_ms);
  return elapsed / iters;
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return (n % 2 == 1) ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct PairTiming {
  double a_ms = 0.0;
  double b_ms = 0.0;
  double a_over_b = 0.0;  ///< Median of per-rep ratios — see below.
};

/// Times two kernels with *interleaved* samples: CPU frequency drift
/// and scheduler noise hit adjacent samples about equally, so forming
/// the ratio per rep (then taking the median) cancels it out of the
/// speedup the regression gate tracks, where two independently timed
/// medians would not. Median rather than min: the gate compares runs
/// from different process lifetimes, and the median is far less
/// sensitive to cache/frequency state than the best sample.
PairTiming TimedPairMs(int reps, const std::function<void()>& a,
                       const std::function<void()>& b,
                       double min_ms = 50.0) {
  std::vector<double> samples_a, samples_b, ratios;
  for (int r = 0; r < reps; ++r) {
    const double sample_a = SampleMs(a, min_ms);
    const double sample_b = SampleMs(b, min_ms);
    samples_a.push_back(sample_a);
    samples_b.push_back(sample_b);
    ratios.push_back(sample_a / sample_b);
  }
  return {Median(std::move(samples_a)), Median(std::move(samples_b)),
          Median(std::move(ratios))};
}

linalg::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  linalg::Matrix m(rows, cols);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    double* row = m.RowPtr(r);
    for (size_t c = 0; c < cols; ++c) row[c] = rng.NextGaussian();
  }
  return m;
}

/// The pre-optimization dense multiply: i-k-j order, one long
/// accumulation stride per output row, zero-skip branch included. Kept
/// here as the reference the blocked kernel is benchmarked (and
/// bit-compared) against.
linalg::Matrix NaiveMultiply(const linalg::Matrix& a,
                             const linalg::Matrix& b) {
  COLSCOPE_CHECK(a.cols() == b.rows());
  linalg::Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.RowPtr(i);
    double* out_row = out.RowPtr(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      const double x = a_row[k];
      if (x == 0.0) continue;
      const double* b_row = b.RowPtr(k);
      for (size_t j = 0; j < b.cols(); ++j) out_row[j] += x * b_row[j];
    }
  }
  return out;
}

bool BitIdentical(const linalg::Matrix& a, const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* ra = a.RowPtr(r);
    const double* rb = b.RowPtr(r);
    for (size_t c = 0; c < a.cols(); ++c) {
      if (ra[c] != rb[c]) return false;
    }
  }
  return true;
}

/// One scalar-reference dot per output cell over the transposed right
/// operand — what Multiply must now reproduce bit for bit no matter
/// which SIMD table dispatch selected (the canonical reduction tree is
/// ISA-invariant by contract). The old blocked i-k-j kernel is retired;
/// NaiveMultiply above stays only as the timing "before".
linalg::Matrix ScalarDotMultiply(const linalg::Matrix& a,
                                 const linalg::Matrix& b) {
  const linalg::Matrix bt = b.Transposed();
  linalg::Matrix out(a.rows(), b.cols());
  const auto& scalar = linalg::simd::ScalarKernels();
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      out.RowPtr(i)[j] = scalar.dot(a.RowPtr(i), bt.RowPtr(j), a.cols());
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::HasFlag(argc, argv, "--smoke");
  const std::string out_dir = StringFlag(argc, argv, "--out", ".");
  const int reps =
      static_cast<int>(bench::FlagValue(argc, argv, "--reps", 5));

  // Smoke sizes keep the ctest gate in seconds while staying large
  // enough that the measured ratios are stable; full sizes match the
  // paper's setting (768-dim signatures, ~50 elements per schema).
  const size_t mm = smoke ? 96 : 256;    // Square multiply dimension.
  const size_t pca_rows = smoke ? 20 : 50;
  const size_t pca_dims = smoke ? 128 : 768;
  std::filesystem::create_directories(out_dir);

  bench::BenchReport report("linalg_kernels");
  report.metrics().GetGauge("bench.smoke").Set(smoke ? 1.0 : 0.0);

  bench::PrintHeader(StrFormat(
      "linalg kernel benchmarks (%s mode, best of %d)",
      smoke ? "smoke" : "full", reps));

  const double simd_active =
      linalg::simd::NativeKernels() != nullptr &&
              linalg::simd::Active().name != std::string("scalar")
          ? 1.0
          : 0.0;
  std::printf("active kernel table: %s\n", linalg::simd::ActiveName());

  // ---- Dense multiply: dispatched dot-per-cell vs naive triple loop. ----
  // The bit-identity check is against the scalar-table per-cell dot:
  // Multiply's contract is "same bits whichever table dispatch picked",
  // not "same bits as the naive i-k-j accumulation order".
  {
    const linalg::Matrix a = RandomMatrix(mm, mm, 0xa11ce);
    const linalg::Matrix b = RandomMatrix(mm, mm, 0xb0b5);
    // The sink defeats whole-call elimination: GCC can prove a
    // discarded NaiveMultiply (allocate, fill, free) has no side
    // effects and delete it, timing an empty loop.
    volatile double sink = 0.0;
    const auto [naive_ms, dispatched_ms, speedup] = TimedPairMs(
        reps, [&] { sink = NaiveMultiply(a, b).RowPtr(0)[0]; },
        [&] { sink = a.Multiply(b).RowPtr(0)[0]; });
    (void)sink;
    const bool ok = BitIdentical(a.Multiply(b), ScalarDotMultiply(a, b));
    const double flops = 2.0 * mm * mm * mm;
    std::printf("multiply %zux%zux%zu: naive %.2f ms, dispatched %.2f ms "
                "(%.2fx, %.2f GFLOP/s), bit-identical: %s\n",
                mm, mm, mm, naive_ms, dispatched_ms, speedup,
                flops / (dispatched_ms * 1e6), ok ? "yes" : "NO");
    report.AddRow("multiply", StrFormat("%zux%zux%zu", mm, mm, mm),
                  {{"naive_wall_ms", naive_ms},
                   {"dispatched_wall_ms", dispatched_ms},
                   {"dispatched_gflops", flops / (dispatched_ms * 1e6)},
                   {"multiply_speedup", speedup},
                   {"simd_active", simd_active},
                   {"ok", ok ? 1.0 : 0.0}});
  }

  // ---- A·Bᵀ: fused kernel vs materializing the transpose. ----
  // Benched at a PcaModel::Encode-like shape — a tall signature block
  // (n x d) projected onto a handful of components (k x d).
  // MultiplyTransposedB is now the primary kernel (row-against-row
  // dispatched dots) and Multiply delegates to it through a transpose,
  // so the "via transpose" side pays two transpose materializations the
  // fused call avoids.
  {
    const size_t n = smoke ? 40 : 120;
    const size_t k = smoke ? 4 : 8;
    const size_t d = smoke ? 128 : 192;
    const linalg::Matrix a = RandomMatrix(n, d, 0xcafe);
    const linalg::Matrix b = RandomMatrix(k, d, 0xdead);
    volatile double sink = 0.0;
    const auto [via_transpose_ms, fused_ms, speedup] =
        TimedPairMs(reps, [&] { sink = a.Multiply(b.Transposed()).RowPtr(0)[0]; },
                    [&] { sink = a.MultiplyTransposedB(b).RowPtr(0)[0]; });
    (void)sink;
    const bool ok =
        BitIdentical(a.Multiply(b.Transposed()), a.MultiplyTransposedB(b));
    std::printf("a_bt %zux%zux%zu: via-transpose %.2f ms, fused %.2f ms "
                "(%.2fx), bit-identical: %s\n",
                n, d, k, via_transpose_ms, fused_ms, speedup,
                ok ? "yes" : "NO");
    report.AddRow("multiply_transposed_b",
                  StrFormat("%zux%zux%zu", n, d, k),
                  {{"via_transpose_wall_ms", via_transpose_ms},
                   {"fused_wall_ms", fused_ms},
                   {"a_bt_speedup", speedup},
                   {"ok", ok ? 1.0 : 0.0}});
  }

  // ---- 768-dim span kernels: dispatched table vs scalar reference. ----
  // The paper's signature width. Each timing side sweeps a block of
  // rows against one query so the kernel dominates, not the loop; the
  // "*_ok" cells assert the dispatched results are bit-identical to the
  // scalar canonical-reduction-tree reference on every row.
  {
    const size_t d = 768;
    const size_t rows = smoke ? 128 : 1024;
    const linalg::Matrix block = RandomMatrix(rows, d, 0x57a2);
    const linalg::Matrix qm = RandomMatrix(1, d, 0x9e3b);
    const double* q = qm.RowPtr(0);
    const auto& scalar = linalg::simd::ScalarKernels();
    const auto& active = linalg::simd::Active();

    struct SpanCase {
      const char* name;
      std::function<double(const linalg::simd::KernelTable&, const double*)>
          eval;
    };
    const SpanCase cases[] = {
        {"dot",
         [&](const auto& t, const double* row) { return t.dot(row, q, d); }},
        {"mse",
         [&](const auto& t, const double* row) {
           return t.squared_l2(row, q, d) / static_cast<double>(d);
         }},
    };
    for (const SpanCase& c : cases) {
      volatile double sink = 0.0;
      const auto run = [&](const linalg::simd::KernelTable& t) {
        double acc = 0.0;
        for (size_t r = 0; r < rows; ++r) acc += c.eval(t, block.RowPtr(r));
        sink = acc;
      };
      const auto [scalar_ms, simd_ms, speedup] = TimedPairMs(
          reps, [&] { run(scalar); }, [&] { run(active); });
      bool ok = true;
      for (size_t r = 0; r < rows && ok; ++r) {
        ok = c.eval(scalar, block.RowPtr(r)) == c.eval(active, block.RowPtr(r));
      }
      (void)sink;
      std::printf("span_%s %zud x %zu rows: scalar %.3f ms, %s %.3f ms "
                  "(%.2fx), bit-identical: %s\n",
                  c.name, d, rows, scalar_ms, linalg::simd::ActiveName(),
                  simd_ms, speedup, ok ? "yes" : "NO");
      report.AddRow(
          "span_kernels", StrFormat("%s_%zud", c.name, d),
          {{"scalar_wall_ms", scalar_ms},
           {"simd_wall_ms", simd_ms},
           {StrFormat("span_%s_speedup", c.name), speedup},
           {"simd_active", simd_active},
           {StrFormat("span_%s_ok", c.name), ok ? 1.0 : 0.0}});
    }
  }

  // ---- PCA decode: d column dots vs one dot_columns call. ----
  // The decode step of the phase III row body at its measured shape: a
  // k = 10 code expanded to 768 dimensions. The "before" side is what
  // the row body did until dot_columns existed — one length-k dot per
  // output column over a transposed copy of the components (copied once,
  // outside the timing); the "after" side is one column-dot call
  // straight over the row-major components. Both run on the dispatched
  // table and must give the same bits.
  {
    const size_t k = 10;
    const size_t d = 768;
    const size_t codes = smoke ? 32 : 256;
    const linalg::Matrix components = RandomMatrix(k, d, 0xdec0);
    const linalg::Matrix components_t = components.Transposed();
    const linalg::Matrix z = RandomMatrix(codes, k, 0xdec1);
    const auto& active = linalg::simd::Active();
    std::vector<double> per_column(d);
    std::vector<double> fused(d);
    volatile double sink = 0.0;
    const auto [dots_ms, columns_ms, speedup] = TimedPairMs(
        reps,
        [&] {
          for (size_t r = 0; r < codes; ++r) {
            for (size_t c = 0; c < d; ++c) {
              per_column[c] =
                  active.dot(z.RowPtr(r), components_t.RowPtr(c), k);
            }
            sink = per_column[0];
          }
        },
        [&] {
          for (size_t r = 0; r < codes; ++r) {
            active.dot_columns(z.RowPtr(r), components.RowPtr(0), k, d,
                               fused.data());
            sink = fused[0];
          }
        });
    (void)sink;
    bool ok = true;
    for (size_t r = 0; r < codes && ok; ++r) {
      active.dot_columns(z.RowPtr(r), components.RowPtr(0), k, d,
                         fused.data());
      for (size_t c = 0; c < d && ok; ++c) {
        ok = fused[c] == active.dot(z.RowPtr(r), components_t.RowPtr(c), k);
      }
    }
    std::printf("decode k=%zu -> %zud x %zu codes: %zu dots %.3f ms, "
                "dot_columns %.3f ms (%.2fx), bit-identical: %s\n",
                k, d, codes, d, dots_ms, columns_ms, speedup,
                ok ? "yes" : "NO");
    report.AddRow("pca_decode", StrFormat("decode_%zud", d),
                  {{"dots_wall_ms", dots_ms},
                   {"dot_columns_wall_ms", columns_ms},
                   {"decode_speedup", speedup},
                   {"simd_active", simd_active},
                   {"decode_ok", ok ? 1.0 : 0.0}});
  }

  // ---- int8 quantized scan vs double scan. ----
  // The prefilter workload: one query dotted against every stored
  // signature. The int8 side runs over the SoA store (codes + scales);
  // the accuracy gate checks every approximate dot stays inside the
  // store's documented error bound against the exact double dot.
  {
    const size_t d = 768;
    const size_t rows = smoke ? 128 : 512;
    const linalg::Matrix sigs = RandomMatrix(rows, d, 0x178a);
    const embed::QuantizedSignatureStore store(sigs);
    const linalg::Matrix qm = RandomMatrix(1, d, 0x178b);
    std::vector<double> query(qm.RowPtr(0), qm.RowPtr(0) + d);
    const embed::QuantizedQuery q = store.Quantize(query);
    const auto& active = linalg::simd::Active();

    volatile double sink = 0.0;
    const auto [double_ms, int8_ms, speedup] = TimedPairMs(
        reps,
        [&] {
          double acc = 0.0;
          for (size_t r = 0; r < rows; ++r) {
            acc += active.dot(sigs.RowPtr(r), query.data(), d);
          }
          sink = acc;
        },
        [&] {
          double acc = 0.0;
          for (size_t r = 0; r < rows; ++r) {
            acc += store.ApproxDot(r, q);
          }
          sink = acc;
        });
    (void)sink;
    double max_err = 0.0;
    bool within_bound = true;
    for (size_t r = 0; r < rows; ++r) {
      const double exact = active.dot(sigs.RowPtr(r), query.data(), d);
      const double approx = store.ApproxDot(r, q);
      const double err = std::abs(exact - approx);
      max_err = std::max(max_err, err);
      within_bound =
          within_bound && err <= store.DotErrorBound(r, q.scale, q.l1);
    }
    std::printf("int8_scan %zud x %zu rows: double %.3f ms, int8 %.3f ms "
                "(%.2fx), max |err| %.3e, within bound: %s\n",
                d, rows, double_ms, int8_ms, speedup, max_err,
                within_bound ? "yes" : "NO");
    report.AddRow("quantized_scan", StrFormat("dot_i8_%zud", d),
                  {{"double_wall_ms", double_ms},
                   {"int8_wall_ms", int8_ms},
                   {"int8_dot_speedup", speedup},
                   {"int8_max_abs_err", max_err},
                   {"simd_active", simd_active},
                   {"int8_bound_ok", within_bound ? 1.0 : 0.0}});
  }

  // ---- Quantized top-k recall on the paper corpora. ----
  // End-to-end quality gate for --quantized: FlatL2Index in quantized
  // mode (approximate ranking, exact rescoring) must recover >= 98% of
  // the exact top-10 on real signature sets — the Figure 1 toy scenario
  // always, OC3 additionally in full mode.
  {
    const embed::HashedLexiconEncoder encoder;
    struct Corpus {
      const char* label;
      datasets::MatchingScenario scenario;
    };
    std::vector<Corpus> corpora;
    corpora.push_back({"toy", datasets::BuildToyScenario()});
    if (!smoke) corpora.push_back({"oc3", datasets::BuildOc3Scenario()});
    for (const Corpus& corpus : corpora) {
      const scoping::SignatureSet sig =
          scoping::BuildSignatures(corpus.scenario.set, encoder);
      const matching::FlatL2Index exact(sig.signatures);
      const matching::FlatL2Index quant(
          sig.signatures, matching::FlatL2Index::Options{.quantized = true});
      const size_t k = 10;
      size_t hits = 0, total = 0;
      for (size_t r = 0; r < sig.size(); ++r) {
        const linalg::Vector query(sig.signatures.RowPtr(r),
                                   sig.signatures.RowPtr(r) +
                                       sig.signatures.cols());
        const std::vector<size_t> want = exact.Search(query, k);
        const std::vector<size_t> got = quant.Search(query, k);
        for (size_t id : want) {
          hits += std::find(got.begin(), got.end(), id) != got.end() ? 1 : 0;
        }
        total += want.size();
      }
      const double recall =
          total == 0 ? 1.0 : static_cast<double>(hits) / total;
      const bool ok = recall >= 0.98;
      std::printf("quantized_recall %s: %zu queries, recall@%zu %.4f "
                  "(>= 0.98: %s)\n",
                  corpus.label, sig.size(), k, recall, ok ? "yes" : "NO");
      report.AddRow("quantized_recall", corpus.label,
                    {{"queries", static_cast<double>(sig.size())},
                     {"recall_at_10", recall},
                     {"recall_ok", ok ? 1.0 : 0.0}});
    }
  }

  // ---- PCA fit: Gram trick vs forced covariance path. ----
  // This is the kernel behind LocalModel::Fit — n_rows << dims on every
  // real schema, so the Gram side eigendecomposes n×n instead of d×d.
  {
    const linalg::Matrix x = RandomMatrix(pca_rows, pca_dims, 0x9ca);
    const auto fit = [&](linalg::PcaFitPath path) {
      auto model = linalg::PcaModel::FitWithVariance(x, 0.8, path);
      COLSCOPE_CHECK_MSG(model.ok(), model.status().ToString().c_str());
      return std::move(model).value();
    };
    // Interleaved like every other speedup cell, so host drift hits
    // both sides of each per-rep ratio. One covariance pass (a d×d
    // Jacobi) outlasts min_ms, so each rep times it once; at 768 dims
    // that pass takes minutes, so the full run times one pair.
    const auto [cov_ms, gram_ms, speedup] = TimedPairMs(
        smoke ? reps : 1, [&] { fit(linalg::PcaFitPath::kCovariance); },
        [&] { fit(linalg::PcaFitPath::kGram); });
    const double rows_per_s = pca_rows / (gram_ms / 1000.0);
    std::printf("pca_fit %zux%zu: covariance %.2f ms, gram %.2f ms "
                "(%.1fx, %.0f rows/s)\n",
                pca_rows, pca_dims, cov_ms, gram_ms, speedup, rows_per_s);
    const std::string label = StrFormat("%zux%zu", pca_rows, pca_dims);
    report.AddRow("pca_fit", label,
                  {{"covariance_wall_ms", cov_ms},
                   {"gram_wall_ms", gram_ms},
                   {"gram_rows_per_s", rows_per_s},
                   {"pca_fit_speedup", speedup}});

    // The committed before/after pair: one file per fit path, each with
    // wall-ms and throughput for the same input shape.
    bench::BenchReport before("pca_fit_covariance");
    before.AddRow("pca_fit", label,
                  {{"wall_ms", cov_ms},
                   {"rows_per_s", pca_rows / (cov_ms / 1000.0)}});
    bench::BenchReport after("pca_fit_gram");
    after.AddRow("pca_fit", label,
                 {{"wall_ms", gram_ms}, {"rows_per_s", rows_per_s}});
    if (!before.Write(out_dir) || !after.Write(out_dir)) return 1;
  }

  if (!report.Write(out_dir)) return 1;
  return 0;
}
