// Runtime kernel dispatch. The decision is made once (first Active()
// call) and cached in an atomic pointer; setting the
// COLSCOPE_FORCE_SCALAR environment variable before startup pins the
// scalar reference.

#include <atomic>
#include <cstdlib>

#include "linalg/simd/kernels.h"

namespace colscope::linalg::simd {

namespace {

/// Cached dispatch decision; null until the first Active() call (or
/// after ResetDispatchForTesting).
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* Resolve() {
  const char* force = std::getenv("COLSCOPE_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0') return &ScalarKernels();
  if (const KernelTable* native = NativeKernels()) return native;
  return &ScalarKernels();
}

}  // namespace

const KernelTable* NativeKernels() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  // Avx2Kernels() is null when the compiler could not target AVX2 at
  // all; the cpuid check guards the machines where it could but the
  // hardware can't run it.
  if (Avx2Kernels() != nullptr && __builtin_cpu_supports("avx2")) {
    return Avx2Kernels();
  }
  return nullptr;
#elif defined(__aarch64__)
  return NeonKernels();
#else
  return nullptr;
#endif
}

const KernelTable& Active() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = Resolve();
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

const char* ActiveName() { return Active().name; }

void ResetDispatchForTesting() {
  g_active.store(nullptr, std::memory_order_release);
}

}  // namespace colscope::linalg::simd
