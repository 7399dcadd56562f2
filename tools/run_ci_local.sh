#!/bin/sh
# Replays every .github/workflows/ci.yml job locally, in order:
#
#   1. build-test matrix: {gcc, clang} x {Debug, Release} + ctest
#   2. sanitizers:        tools/run_sanitized_tests.sh
#   3. distributed-smoke: tools/run_distributed_smoke.sh (multi-process
#                         coordinator/worker quorum + telemetry-harvest
#                         test under ASan/UBSan)
#   4. server-smoke:      tools/run_server_smoke.sh (resident colscoped
#                         daemon: drain, overload shedding, crash-restart
#                         byte-identity, under ASan/UBSan)
#   5. kernels-matrix:    kernel equivalence tests under native dispatch
#                         and with COLSCOPE_FORCE_SCALAR=1
#   6. bench-smoke:       tools/run_benches.sh --smoke + regression gates
#   7. perfbench-selftest: python3 perfbench/selftest.py (the end-to-end
#                         benchmark builds and checks itself)
#   8. lint:              header / build-artifact / format / shell checks
#
# With --nightly the bench job mirrors the CI nightly-bench lane
# instead (tools/run_benches.sh --all at full sizes, results in
# bench-results-full/ — the lane CI keeps as 90-day artifacts).
#
# Toolchains the machine lacks (clang, ccache, clang-format,
# shellcheck) are detected and skipped with a notice instead of
# failing, so the script is useful both on full dev boxes and minimal
# containers. Any check that *runs* and fails fails the script.
#
# Usage: tools/run_ci_local.sh [--skip-sanitizers] [--skip-bench] [--nightly]
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

skip_sanitizers=0
skip_bench=0
nightly=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) skip_sanitizers=1 ;;
    --skip-bench) skip_bench=1 ;;
    --nightly) nightly=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

note() { printf '\n== %s ==\n' "$1"; }

launcher_flags=""
if command -v ccache > /dev/null 2>&1; then
  launcher_flags="-DCMAKE_C_COMPILER_LAUNCHER=ccache \
    -DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
else
  note "ccache not found; building without a compiler launcher"
fi

# Job 1: build-test matrix.
for compiler in gcc clang; do
  case "$compiler" in
    gcc) cc=gcc cxx=g++ ;;
    clang) cc=clang cxx=clang++ ;;
  esac
  if ! command -v "$cxx" > /dev/null 2>&1; then
    note "build-test[$compiler]: $cxx not found; skipping"
    continue
  fi
  for build_type in Debug Release; do
    note "build-test[$compiler/$build_type]"
    build="build-ci-$compiler-$(echo "$build_type" | tr '[:upper:]' '[:lower:]')"
    # shellcheck disable=SC2086  # launcher_flags is intentionally split
    CC=$cc CXX=$cxx cmake -B "$build" -S . \
      -DCMAKE_BUILD_TYPE="$build_type" $launcher_flags > /dev/null
    cmake --build "$build" -j "$(nproc)" > /dev/null
    (cd "$build" && ctest --output-on-failure -j "$(nproc)")
  done
done

# Job 2: sanitizers.
if [ "$skip_sanitizers" -eq 1 ]; then
  note "sanitizers: skipped (--skip-sanitizers)"
else
  note "sanitizers"
  tools/run_sanitized_tests.sh
fi

# Job 3: distributed multi-process smoke under sanitizers. Shares the
# --skip-sanitizers flag: both jobs exist to run instrumented builds.
if [ "$skip_sanitizers" -eq 1 ]; then
  note "distributed-smoke: skipped (--skip-sanitizers)"
else
  note "distributed-smoke"
  tools/run_distributed_smoke.sh
fi

# Job 4: resident-server smoke under sanitizers. Shares the
# --skip-sanitizers flag for the same reason as job 3.
if [ "$skip_sanitizers" -eq 1 ]; then
  note "server-smoke: skipped (--skip-sanitizers)"
else
  note "server-smoke"
  tools/run_server_smoke.sh
fi

# Job 5: kernel dispatch matrix. The equivalence battery must pass with
# whatever SIMD table the runtime dispatcher picked AND with
# COLSCOPE_FORCE_SCALAR=1, the one switch that pins the scalar
# reference.
note "kernels-matrix"
kernels_build="build-ci-kernels"
# shellcheck disable=SC2086  # launcher_flags is intentionally split
cmake -B "$kernels_build" -S . -DCMAKE_BUILD_TYPE=Release \
  $launcher_flags > /dev/null
cmake --build "$kernels_build" -j "$(nproc)" \
  --target simd_kernels_test linalg_kernels_test > /dev/null
note "kernels-matrix[native]"
(cd "$kernels_build" && \
  ctest --output-on-failure -R '^(simd_kernels_test|linalg_kernels_test)$')
note "kernels-matrix[scalar]"
(cd "$kernels_build" && COLSCOPE_FORCE_SCALAR=1 \
  ctest --output-on-failure -R '^(simd_kernels_test|linalg_kernels_test)$')

# Job 6: bench smoke + regression gates. With --nightly this mirrors
# the CI nightly-bench lane: every bench at full (non-smoke) sizes,
# gated against the committed full baselines.
if [ "$skip_bench" -eq 1 ]; then
  note "bench: skipped (--skip-bench)"
elif [ "$nightly" -eq 1 ]; then
  note "nightly-bench (full sizes, --all)"
  tools/run_benches.sh --all --out bench-results-full
else
  note "bench-smoke"
  tools/run_benches.sh --smoke --out bench-results
fi

# Job 7: the end-to-end benchmark's self-test (Release build of ../src).
# Shares --skip-bench with job 6.
if [ "$skip_bench" -eq 1 ]; then
  note "perfbench-selftest: skipped (--skip-bench)"
else
  note "perfbench-selftest"
  python3 perfbench/selftest.py
fi

# Job 8: lint.
note "lint"
tools/check_headers.sh src "${CXX:-c++}" bench
tools/check_no_build_artifacts.sh .
tools/check_format.sh .
tools/check_shellcheck.sh .

note "all local CI jobs passed"
