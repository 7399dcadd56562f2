#!/bin/sh
# Builds the robustness-focused tests under three sanitizer configs and
# runs them:
#   1. ASan + UBSan over the deserialization/exchange robustness tests
#      (memory safety of the untrusted-input paths) — including the
#      artifact-cache reader, the one way a run recovers state from
#      disk — plus the SIMD/int8 kernel equivalence battery (unaligned
#      loads, padded quantized stores — exactly what ASan is for) and
#      the linalg kernel tests, whose PCA row body reads the components
#      through the strided column-dot kernel, the wire-frame codec and
#      the checksum; then the long seeded mutation passes over the cache
#      decoders and the frame decoder;
#   2. TSan over the concurrency-facing tests (thread pool, metrics
#      registry, cancellation tokens, and the shared serving loop that
#      the distributed worker and colscoped drive from many connection
#      threads) — races, not leaks.
# Usage: run_sanitized_tests.sh [BUILD_DIR_PREFIX]
#   (default: <repo>/build-sanitized; TSan uses <prefix>-tsan)
set -e
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build-sanitized}"

asan_tests='exchange_test|model_corruption_test|model_io_test|robustness_test|simd_kernels_test|linalg_kernels_test|cache_test|pipeline_test|net_frame_test|common_test'
tsan_tests='thread_pool_test|obs_test|cancellation_test|parallel_paths_test|server_test|tcp_transport_test'

# Compile through ccache when it is installed (the CI jobs restore a
# per-job cache); plain compilation otherwise.
launcher_flags=""
if command -v ccache > /dev/null 2>&1; then
  launcher_flags="-DCMAKE_C_COMPILER_LAUNCHER=ccache -DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
fi

# shellcheck disable=SC2086  # launcher_flags is two separate cmake args
cmake -B "$build" -S "$root" $launcher_flags \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCOLSCOPE_ASAN=ON -DCOLSCOPE_UBSAN=ON
cmake --build "$build" -j \
  --target exchange_test model_corruption_test model_io_test robustness_test \
  simd_kernels_test linalg_kernels_test cache_test pipeline_test \
  net_frame_test common_test
(cd "$build" && ctest --output-on-failure -R "^($asan_tests)\$")
# The long seeded mutation passes over the cache decoders and the frame
# decoder (tier-1 runs the short ones).
"$build/tests/cache_test" --gtest_also_run_disabled_tests \
  --gtest_filter='PayloadMutationTest.*'
"$build/tests/net_frame_test" --gtest_also_run_disabled_tests \
  --gtest_filter='FrameMutationTest.*'

# shellcheck disable=SC2086
cmake -B "$build-tsan" -S "$root" $launcher_flags \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCOLSCOPE_TSAN=ON
cmake --build "$build-tsan" -j \
  --target thread_pool_test obs_test cancellation_test parallel_paths_test \
  server_test tcp_transport_test
(cd "$build-tsan" && ctest --output-on-failure -R "^($tsan_tests)\$")
