#!/bin/sh
# Resident-server lifecycle check for colscoped.
#
# Usage: check_server_drain.sh CLI_BINARY TESTDATA_DIR SCRATCH_DIR
#
# Four phases:
#   1. Warm byte-identity: a daemon with a resident artifact cache must
#      answer `match --json` requests byte-identical to the cold CLI —
#      on the first (cold-cache) request and on the warm repeat, and
#      with --matcher ivf and --matcher tbsim.
#   2. Crash recovery: kill -9 the daemon, restart it over the same
#      cache directory; the warm answer must still be byte-identical.
#      A programmatic `shutdown` RPC must then drain it to exit 0.
#   3. Overload shedding: a daemon sized to one slot and a one-deep
#      queue, slowed by --serve-delay-ms, must shed concurrent excess
#      requests with typed kOverloaded (client exit 3) while the
#      admitted requests still produce byte-identical reports.
#   4. Graceful drain: SIGTERM lands while requests are in flight; the
#      in-flight and queued work completes, new connections are
#      refused, the daemon exits 0, and the flushed metrics report
#      server.requests_shed > 0 and server.requests_completed > 0.
set -eu

cli=$1
testdata=$2
scratch=$3

rm -rf "$scratch"
mkdir -p "$scratch"

ddls="--ddl $testdata/crm.sql --ddl $testdata/erp.sql"

server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2> /dev/null || true
}
trap cleanup EXIT INT TERM

# Ephemeral ports: the daemon binds port 0 and writes the kernel's pick
# atomically (tmp + rename), so polling never reads a torn value.
wait_port() {
  tries=0
  while [ ! -s "$1" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
      echo "FAIL: daemon never wrote $1" >&2
      exit 1
    fi
    sleep 0.1
  done
  cat "$1"
}

# ---- Phase 1: warm byte-identity ------------------------------------

# shellcheck disable=SC2086
"$cli" match $ddls --v 0.6 --json > "$scratch/cold.json"

# shellcheck disable=SC2086
"$cli" serve --listen 127.0.0.1:0 --port-file "$scratch/a.port" \
  --cache-dir "$scratch/cache" --log-level error \
  --metrics-out "$scratch/a.metrics.json" 2> /dev/null &
server_pid=$!
port=$(wait_port "$scratch/a.port")

# shellcheck disable=SC2086
"$cli" match $ddls --v 0.6 --json --connect "127.0.0.1:$port" \
  > "$scratch/warm1.json"
cmp "$scratch/cold.json" "$scratch/warm1.json" || {
  echo "FAIL: first server answer differs from the cold CLI run" >&2
  exit 1
}
# shellcheck disable=SC2086
"$cli" match $ddls --v 0.6 --json --connect "127.0.0.1:$port" \
  > "$scratch/warm2.json"
cmp "$scratch/cold.json" "$scratch/warm2.json" || {
  echo "FAIL: warm-cache server answer differs from the cold CLI run" >&2
  exit 1
}

"$cli" health --connect "127.0.0.1:$port" > "$scratch/health.txt"
grep -q '^state serving$' "$scratch/health.txt" || {
  echo "FAIL: health probe did not report a serving daemon" >&2
  cat "$scratch/health.txt" >&2
  exit 1
}
grep -q '^completed 2$' "$scratch/health.txt" || {
  echo "FAIL: health probe did not count both completed requests" >&2
  cat "$scratch/health.txt" >&2
  exit 1
}

# The daemon builds its matcher with the cold CLI's factory, so every
# matcher the cold CLI knows is served byte-identically too.
for matcher in ivf tbsim; do
  # shellcheck disable=SC2086
  "$cli" match $ddls --v 0.6 --matcher "$matcher" --json \
    > "$scratch/cold-$matcher.json"
  # shellcheck disable=SC2086
  "$cli" match $ddls --v 0.6 --matcher "$matcher" --json \
    --connect "127.0.0.1:$port" > "$scratch/warm-$matcher.json"
  cmp "$scratch/cold-$matcher.json" "$scratch/warm-$matcher.json" || {
    echo "FAIL: --matcher $matcher server answer differs from cold run" >&2
    exit 1
  }
done

# ---- Phase 2: crash recovery over the same cache --------------------

kill -9 "$server_pid"
wait "$server_pid" 2> /dev/null || true
server_pid=""
rm -f "$scratch/a.port"

# shellcheck disable=SC2086
"$cli" serve --listen 127.0.0.1:0 --port-file "$scratch/b.port" \
  --cache-dir "$scratch/cache" --log-level error \
  --metrics-out "$scratch/b.metrics.json" 2> /dev/null &
server_pid=$!
port=$(wait_port "$scratch/b.port")

# shellcheck disable=SC2086
"$cli" match $ddls --v 0.6 --json --connect "127.0.0.1:$port" \
  > "$scratch/warm3.json"
cmp "$scratch/cold.json" "$scratch/warm3.json" || {
  echo "FAIL: post-crash restart answer differs from the cold CLI run" >&2
  exit 1
}

"$cli" shutdown --connect "127.0.0.1:$port"
server_rc=0
wait "$server_pid" || server_rc=$?
server_pid=""
[ "$server_rc" -eq 0 ] || {
  echo "FAIL: shutdown-RPC drain exited $server_rc, want 0" >&2
  exit 1
}
[ -s "$scratch/b.metrics.json" ] || {
  echo "FAIL: drained daemon did not flush its metrics snapshot" >&2
  exit 1
}

# ---- Phases 3 + 4: overload shedding, then SIGTERM mid-request ------

# One execution slot, a one-deep queue, and a 1s artificial service
# time: of four concurrent requests, the two that arrive late must be
# shed at admission; the two admitted ones ride out the drain.
# shellcheck disable=SC2086
"$cli" serve --listen 127.0.0.1:0 --port-file "$scratch/c.port" \
  --max-inflight 1 --max-queue 1 --serve-delay-ms 1000 \
  --drain-grace-ms 8000 --log-level error \
  --metrics-out "$scratch/c.metrics.json" 2> /dev/null &
server_pid=$!
port=$(wait_port "$scratch/c.port")

for i in 1 2 3 4; do
  # shellcheck disable=SC2086
  (
    rc=0
    "$cli" match $ddls --v 0.6 --json --connect "127.0.0.1:$port" \
      > "$scratch/c$i.out" 2> "$scratch/c$i.err" || rc=$?
    echo "$rc" > "$scratch/c$i.rc"
  ) &
done

# SIGTERM while request 1 sits in its execution slot and another is
# queued: the textbook mid-request drain.
sleep 0.4
kill -TERM "$server_pid"

# Once the drain began the listener is closed; a new request must be
# refused, not served.
sleep 0.3
# shellcheck disable=SC2086
if "$cli" match $ddls --v 0.6 --json --connect "127.0.0.1:$port" \
  > /dev/null 2> "$scratch/late.err"; then
  echo "FAIL: a new request was served after the drain began" >&2
  exit 1
fi

server_rc=0
wait "$server_pid" || server_rc=$?
server_pid=""
[ "$server_rc" -eq 0 ] || {
  echo "FAIL: SIGTERM drain under load exited $server_rc, want 0" >&2
  exit 1
}
wait || true

ok=0
shed=0
for i in 1 2 3 4; do
  [ -s "$scratch/c$i.rc" ] || {
    echo "FAIL: client $i never recorded an exit code" >&2
    exit 1
  }
  rc=$(cat "$scratch/c$i.rc")
  case "$rc" in
    0)
      cmp "$scratch/cold.json" "$scratch/c$i.out" || {
        echo "FAIL: drained in-flight answer $i differs from cold run" >&2
        exit 1
      }
      ok=$((ok + 1))
      ;;
    3)
      grep -q 'overloaded' "$scratch/c$i.err" || {
        echo "FAIL: shed client $i lacks a typed overloaded error" >&2
        cat "$scratch/c$i.err" >&2
        exit 1
      }
      shed=$((shed + 1))
      ;;
    *)
      echo "FAIL: client $i exited $rc (want 0 ok or 3 shed)" >&2
      cat "$scratch/c$i.err" >&2
      exit 1
      ;;
  esac
done
[ "$ok" -ge 1 ] || {
  echo "FAIL: no in-flight request survived the drain" >&2
  exit 1
}
[ "$shed" -ge 1 ] || {
  echo "FAIL: overload shed no request" >&2
  exit 1
}

python3 - "$scratch/c.metrics.json" << 'EOF'
import json
import sys

metrics = json.load(open(sys.argv[1]))
counters = metrics["counters"]
assert counters.get("server.requests_shed", 0) > 0, counters
assert counters.get("server.requests_completed", 0) > 0, counters
assert counters.get("server.requests_admitted", 0) >= counters[
    "server.requests_completed"], counters
assert "server.queue_depth" in metrics.get("gauges", {}), metrics.keys()
assert "server.request_ms" in metrics.get("histograms", {}), metrics.keys()
EOF

rm -rf "$scratch"
echo "resident server lifecycle OK"
