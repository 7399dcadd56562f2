#!/usr/bin/env bash
# Builds and runs the kernel benchmarks, writing BENCH_*.json result
# files, and (when baselines exist) checks the kernel speedup ratios
# against them.
#
# Usage:
#   tools/run_benches.sh [--smoke] [--out DIR] [--build-dir DIR] [--all]
#
#   --smoke       tiny sizes (seconds; what the bench_smoke ctest runs)
#   --out DIR     where BENCH_*.json land (default: bench/baselines[/smoke]
#                 so a run refreshes the committed baselines in place)
#   --build-dir   CMake build tree (default: build)
#   --all         also run every paper-table bench binary after the
#                 kernel bench (slow; results land in the same --out)
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE=0
OUT=""
BUILD_DIR=build
RUN_ALL=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1; shift ;;
    --out) OUT="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --all) RUN_ALL=1; shift ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

if [[ -z "$OUT" ]]; then
  if [[ "$SMOKE" -eq 1 ]]; then OUT=bench/baselines/smoke; else OUT=bench/baselines; fi
fi
mkdir -p "$OUT"

if [[ ! -d "$BUILD_DIR" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
fi
cmake --build "$BUILD_DIR" --target linalg_kernels cache_warm_vs_cold \
  server_load corpus_scale pipeline_phases -j "$(nproc)" >/dev/null

SMOKE_FLAG=()
if [[ "$SMOKE" -eq 1 ]]; then SMOKE_FLAG=(--smoke); fi
"$BUILD_DIR/bench/linalg_kernels" "${SMOKE_FLAG[@]}" --out "$OUT"
"$BUILD_DIR/bench/cache_warm_vs_cold" "${SMOKE_FLAG[@]}" --out "$OUT"
"$BUILD_DIR/bench/server_load" "${SMOKE_FLAG[@]}" --out "$OUT"
"$BUILD_DIR/bench/corpus_scale" "${SMOKE_FLAG[@]}" --out "$OUT"
"$BUILD_DIR/bench/pipeline_phases" "${SMOKE_FLAG[@]}" --out "$OUT"

# Gate against the committed baselines unless this run just rewrote
# them. The cache gate runs looser than the kernel gate: whole-pipeline
# timings are noisier than kernel microbenchmarks.
BASELINE_DIR=bench/baselines
if [[ "$SMOKE" -eq 1 ]]; then BASELINE_DIR=bench/baselines/smoke; fi
BASELINE="$BASELINE_DIR/BENCH_linalg_kernels.json"
CURRENT="$OUT/BENCH_linalg_kernels.json"
if [[ -f "$BASELINE" && "$BASELINE" != "$CURRENT" ]]; then
  python3 tools/check_bench_regression.py \
    --baseline "$BASELINE" --current "$CURRENT"
fi
BASELINE="$BASELINE_DIR/BENCH_cache_warm_vs_cold.json"
CURRENT="$OUT/BENCH_cache_warm_vs_cold.json"
if [[ -f "$BASELINE" && "$BASELINE" != "$CURRENT" ]]; then
  python3 tools/check_bench_regression.py \
    --baseline "$BASELINE" --current "$CURRENT" --tolerance 0.6
fi
# The server-load gate only checks the dimensionless "ok" invariant
# cells (served/shed/drain behavior); latencies are informational.
BASELINE="$BASELINE_DIR/BENCH_server_load.json"
CURRENT="$OUT/BENCH_server_load.json"
if [[ -f "$BASELINE" && "$BASELINE" != "$CURRENT" ]]; then
  python3 tools/check_bench_regression.py \
    --baseline "$BASELINE" --current "$CURRENT"
fi

# The corpus-scale gate checks deterministic recall/F1/sub-linearity
# invariants everywhere; its timing-ratio cell (ivf_speedup) exists
# only in the full baseline, so PR smoke runs never gate on wall time.
BASELINE="$BASELINE_DIR/BENCH_corpus_scale.json"
CURRENT="$OUT/BENCH_corpus_scale.json"
if [[ -f "$BASELINE" && "$BASELINE" != "$CURRENT" ]]; then
  python3 tools/check_bench_regression.py \
    --baseline "$BASELINE" --current "$CURRENT" --tolerance 0.5
fi

# The pipeline-phase gate checks byte-identity, the exhaustive-reference
# keep mask and the exact pass counter everywhere; its timing ratio
# (early_exit_speedup) exists only in the full baseline.
BASELINE="$BASELINE_DIR/BENCH_pipeline_phases.json"
CURRENT="$OUT/BENCH_pipeline_phases.json"
if [[ -f "$BASELINE" && "$BASELINE" != "$CURRENT" ]]; then
  python3 tools/check_bench_regression.py \
    --baseline "$BASELINE" --current "$CURRENT" --tolerance 0.5
fi

if [[ "$RUN_ALL" -eq 1 ]]; then
  cmake --build "$BUILD_DIR" --target all -j "$(nproc)" >/dev/null
  for bench in table2_datasets table3_cartesian table4_scoping_auc \
      fig5_oc3_curves fig6_oc3fo_curves fig7_ablation discussion_tradeoff \
      ablation_overhead ablation_encoders ablation_instances ablation_er \
      ablation_generalization; do
    echo "== $bench =="
    (cd "$OUT" && "$OLDPWD/$BUILD_DIR/bench/$bench")
  done
fi
