#!/bin/sh
# Crash-recovery determinism check for the colscope CLI: a run that
# crashed resumes by re-running on the same --cache-dir.
#
# Usage: check_resume_deterministic.sh CLI_BINARY TESTDATA_DIR SCRATCH_DIR
#
# 1. A gold run with no cache produces reference JSON.
# 2. A cached run with --crash-after local_models must exit non-zero,
#    leaving the two signature blocks and the two models in the cache.
# 3. Re-running on that cache must produce JSON byte-identical to the
#    gold run, restoring those 4 artifacts (hits) and computing only the
#    3 that come after the crash: both keep slices and the similarity
#    block (misses).
# 4. After corrupting one cached object in place, the re-run must count
#    it as corrupt, recompute it (3 hits, 4 misses), and still produce
#    byte-identical JSON.
#
# Each re-run starts from its own copy of the crashed run's cache: one
# copy produces the report and a second the counters, because the
# metrics snapshot embedded by --metrics-out would change the report.
set -eu

cli=$1
testdata=$2
scratch=$3

rm -rf "$scratch"
mkdir -p "$scratch"
crashed="$scratch/crashed"

run() {
  # $1 = output file; remaining args are appended to the base command.
  out=$1
  shift
  "$cli" match \
    --ddl "$testdata/crm.sql" --ddl "$testdata/erp.sql" \
    --v 0.6 --log-level error --json "$@" > "$out"
}

# expect_counter FILE NAME VALUE: the metrics snapshot must report the
# counter at exactly that value.
expect_counter() {
  if ! grep -q "\"$2\":$3" "$1"; then
    echo "FAIL: expected $2=$3 in $1, got:" >&2
    grep -o '"cache[^,}]*' "$1" >&2 || echo "  (no cache counters)" >&2
    exit 1
  fi
}

# rerun NAME HITS MISSES: re-runs on copies of the crashed run's cache,
# compares the report with gold and the cache counters with HITS/MISSES.
rerun() {
  cp -r "$crashed" "$scratch/$1"
  cp -r "$crashed" "$scratch/$1_m"
  run "$scratch/$1.json" --cache-dir "$scratch/$1"
  cmp "$scratch/gold.json" "$scratch/$1.json" || {
    echo "FAIL: $1 re-run differs from the gold run" >&2
    exit 1
  }
  run /dev/null --cache-dir "$scratch/$1_m" \
    --metrics-out "$scratch/$1_m.json"
  expect_counter "$scratch/$1_m.json" cache.hits "$2"
  expect_counter "$scratch/$1_m.json" cache.misses "$3"
}

run "$scratch/gold.json"

if run "$scratch/crash.json" --cache-dir "$crashed" \
    --crash-after local_models 2> /dev/null; then
  echo "FAIL: --crash-after local_models exited zero" >&2
  exit 1
fi
objects=$(find "$crashed/objects" -name '*.art' | wc -l)
if [ "$objects" -ne 4 ]; then
  echo "FAIL: expected 4 cached objects after the crash, found $objects" >&2
  exit 1
fi

rerun resumed 4 3

# Flip one payload byte (the second-to-last byte of the file) in one
# cached object: the re-run must detect the checksum mismatch, recompute
# that artifact, and still match.
victim=$(find "$crashed/objects" -name '*.art' | sort | head -n 1)
size=$(wc -c < "$victim")
head -c $((size - 2)) "$victim" > "$scratch/tmp" &&
  printf 'Z' >> "$scratch/tmp" &&
  tail -c 1 "$victim" >> "$scratch/tmp" &&
  mv "$scratch/tmp" "$victim"

rerun recovered 3 4
expect_counter "$scratch/recovered_m.json" cache.corrupt 1

rm -rf "$scratch"
echo "resume determinism OK"
