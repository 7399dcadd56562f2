#ifndef COLSCOPE_LINALG_SIMD_KERNELS_H_
#define COLSCOPE_LINALG_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace colscope::linalg::simd {

/// The span kernels behind every hot scoring path (Dot / Norm / Cosine /
/// MSE / L2 over 768-dim signatures, and the column dots that decode a
/// PCA code), dispatched once at startup to the
/// best implementation the CPU offers (AVX2 on x86-64, NEON on
/// aarch64, portable scalar everywhere else).
///
/// Determinism contract: every implementation of the double-precision
/// kernels computes the exact same fixed reduction tree (kLanes partial
/// sums filled round-robin over the main body, tail elements into lanes
/// 0..rem-1, then the fixed combine: lanewise fold f_j = l_j + l_{j+8}
/// for j = 0..7 followed by ((f0+f4)+(f2+f6)) + ((f1+f5)+(f3+f7));
/// `dot_columns` builds that tree once per column), so
/// results are *bit-identical* across the scalar and native tables,
/// across ISAs that honor it, and therefore with or without
/// COLSCOPE_FORCE_SCALAR and at any thread count. An implementation
/// that cannot reproduce the tree exactly (e.g. an ISA whose only fast
/// path contracts multiply-add) must fall back to the scalar kernels
/// rather than ship different bits. There is no exception: cosine
/// similarity is `dot` over the two norms `sqrt(dot(x, x))`
/// (linalg::CosineSimilarity), so it inherits the contract.
///
/// The int8 kernel is exact integer arithmetic, so every
/// implementation is bit-identical by construction.
struct KernelTable {
  /// Implementation name: "scalar", "avx2", or "neon".
  const char* name;

  /// Sum of a[i] * b[i] over the canonical reduction tree.
  double (*dot)(const double* a, const double* b, size_t n);

  /// Sum of (a[i] - b[i])^2 over the canonical reduction tree.
  double (*squared_l2)(const double* a, const double* b, size_t n);

  /// out[c] = Σ_t a[t] * b[t * d + c] for c in [0, d): the dot of
  /// a[0..k) with every column of the row-major k x d matrix `b`, each
  /// over the canonical reduction tree — bit-identical to `dot` on that
  /// column gathered into a contiguous span. One call decodes a PCA
  /// code (k components) back to d dimensions without transposing the
  /// components or paying d separate tree set-ups.
  void (*dot_columns)(const double* a, const double* b, size_t k, size_t d,
                      double* out);

  /// Exact Σ a[i] * b[i] for int8 operands (quantized signatures).
  int64_t (*dot_i8)(const int8_t* a, const int8_t* b, size_t n);
};

/// Number of independent accumulator lanes in the canonical reduction
/// tree shared by every double-precision kernel implementation. Sized
/// so the widest vector unit runs enough independent add chains to
/// clear FP-add latency and hit the load-bandwidth ceiling: 16 lanes =
/// four 4-double ymm chains on AVX2 (two 8-lane chains left the kernel
/// add-latency-bound at about half the load-port throughput) = eight
/// 2-double NEON chains, while the scalar reference still fits its
/// accumulators in registers when auto-vectorized to 128-bit lanes.
inline constexpr size_t kLanes = 16;

/// The portable reference table. Always available; the bench and the
/// equivalence tests compare every other table against it.
const KernelTable& ScalarKernels();

/// The best table the current CPU supports beyond scalar, or null when
/// the build/host offers none (non-x86/ARM, or x86 without AVX2+FMA).
const KernelTable* NativeKernels();

/// The dispatched table, decided once on first use: the scalar table
/// when the COLSCOPE_FORCE_SCALAR environment variable is non-empty
/// (the one way to pin the reference), otherwise NativeKernels() when
/// available, else scalar.
const KernelTable& Active();

/// Name of the table Active() resolves to ("scalar" / "avx2" / "neon").
const char* ActiveName();

/// Drops the cached dispatch decision so the next Active() re-reads
/// COLSCOPE_FORCE_SCALAR. Test-only.
void ResetDispatchForTesting();

// Implementation hooks for dispatch.cc — each returns null when the
// table was not compiled in (wrong architecture).
const KernelTable* Avx2Kernels();
const KernelTable* NeonKernels();

}  // namespace colscope::linalg::simd

#endif  // COLSCOPE_LINALG_SIMD_KERNELS_H_
