#!/bin/sh
# A listener failure makes `colscope serve` drain and exit 1, not 0: the
# daemon's descriptor limit is lowered (prlimit) to its lowest free
# descriptor, so accept() fails with EMFILE on the next connection.
# Usage: check_server_listener_failure.sh CLI_BINARY SCRATCH_DIR
set -eu
cli=$1
scratch=$2
rm -rf "$scratch"
mkdir -p "$scratch"

"$cli" serve --listen 127.0.0.1:0 --port-file "$scratch/port" \
  --log-level error 2> "$scratch/serve.err" &
pid=$!
trap 'kill -9 "$pid" 2> /dev/null || true' EXIT INT TERM
tries=0
until [ -s "$scratch/port" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || { echo "FAIL: no port file" >&2; exit 1; }
  sleep 0.1
done

python3 - "$pid" << 'PY'
import os, resource, sys
pid = int(sys.argv[1])
used = {int(fd) for fd in os.listdir("/proc/%d/fd" % pid)}
free = min(set(range(len(used) + 1)) - used)
hard = resource.prlimit(pid, resource.RLIMIT_NOFILE)[1]
resource.prlimit(pid, resource.RLIMIT_NOFILE, (free, hard))
PY

if "$cli" health --connect "127.0.0.1:$(cat "$scratch/port")" 2> /dev/null
then
  echo "FAIL: a daemon without descriptors answered" >&2
  exit 1
fi
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q 'drain complete' "$scratch/serve.err"; then
  echo "FAIL: want a drain and exit 1, got exit $rc:" >&2
  cat "$scratch/serve.err" >&2
  exit 1
fi
rm -rf "$scratch"
echo "listener failure drains and exits 1 OK"
