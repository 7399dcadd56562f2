#!/bin/sh
# Distributed quorum degradation + telemetry check for the colscope CLI.
#
# Usage: check_distributed_quorum.sh CLI_BINARY TESTDATA_DIR SCRATCH_DIR
#
# Topology: 4 schemas (crm, erp, hr, shop) sharded round-robin over 3
# worker processes — w0 owns {0, 3}, w1 owns {1}, w2 owns {2}. Worker w2
# is started with --crash-after-assign: it fits and publishes its shard,
# acks the assignment, then raise(SIGKILL)s itself — dying mid-exchange,
# after the run has committed to its ownership map but before any of its
# models can be fetched.
#
# Under --exchange-policy quorum:2 the coordinator must:
#   1. exit 0 (a lost peer degrades the run, it does not fail it),
#   2. report worker 2's schema as the lost peer in the degradation
#      block (every surviving consumer lost exactly publisher 2),
#   3. produce elements/linkages JSON blocks byte-identical to the
#      single-process in-memory run with the same peer dropped
#      (--faults drop-from=2) — the transport-independence guarantee,
#   4. with --trace-clock sim, emit one merged Chrome trace holding
#      coordinator (pid 0) and surviving-worker (pids 1, 2) spans under
#      one run trace id — and nothing from the dead worker (pid 3),
#   5. merge the survivors' harvested metrics as worker.0.* / worker.1.*
#      blocks (no worker.2.*) next to the net.rpc_ms.* histograms,
#   6. ship a flight_recorder block in the report that names worker 2 at
#      every round it missed,
#   7. reproduce 4-6 on a full re-run (fresh workers, same seed): the
#      merged trace and the flight-recorder block byte-identical, and
#      the merged metrics identical except for the counters that race
#      with the peer's death — w2's SIGKILL lands concurrently with the
#      first fetch to it, so that attempt classifies as drop (no bytes)
#      vs truncate (reset mid-payload) run to run, which also shifts
#      connect and byte tallies. Attempt/retry/fault TOTALS must still
#      agree: the race moves failures between kinds, never creates or
#      loses one.
#   8. under --deadline-ms 1 --run-clock sim with two healthy workers,
#      exit 0 with a partial deadline_exceeded report that completed
#      only phase I, and leave no worker running.
set -eu

cli=$1
testdata=$2
scratch=$3

rm -rf "$scratch"
mkdir -p "$scratch"

ddls="--ddl $testdata/crm.sql --ddl $testdata/erp.sql \
  --ddl $testdata/hr.sql --ddl $testdata/shop.sql"

w0_pid=""
w1_pid=""
w2_pid=""
cleanup() {
  kill "$w0_pid" "$w1_pid" "$w2_pid" 2> /dev/null || true
}
trap cleanup EXIT INT TERM

# One full distributed run: 3 fresh workers (w2 crashing after assign),
# one coordinator with the simulated trace clock and telemetry outputs.
# $1 names the run ("1", "2") so artifacts land side by side.
run_once() {
  run=$1
  dir="$scratch/run$run"
  mkdir -p "$dir"

  # shellcheck disable=SC2086
  "$cli" match --role worker $ddls --listen 127.0.0.1:0 \
    --port-file "$dir/w0.port" --trace-clock sim \
    --log-level error 2> /dev/null &
  w0_pid=$!
  # shellcheck disable=SC2086
  "$cli" match --role worker $ddls --listen 127.0.0.1:0 \
    --port-file "$dir/w1.port" --trace-clock sim \
    --log-level error 2> /dev/null &
  w1_pid=$!
  # shellcheck disable=SC2086
  "$cli" match --role worker $ddls --listen 127.0.0.1:0 \
    --port-file "$dir/w2.port" --crash-after-assign --trace-clock sim \
    --log-level error 2> /dev/null &
  w2_pid=$!

  # Ephemeral ports: each worker bound port 0 and wrote the kernel's pick
  # to its port file (atomically, tmp + rename), so this poll never reads
  # a half-written value and the test never collides on a fixed port.
  for f in w0.port w1.port w2.port; do
    tries=0
    while [ ! -s "$dir/$f" ]; do
      tries=$((tries + 1))
      if [ "$tries" -gt 100 ]; then
        echo "FAIL: worker never wrote $f (run $run)" >&2
        exit 1
      fi
      sleep 0.1
    done
  done
  p0=$(cat "$dir/w0.port")
  p1=$(cat "$dir/w1.port")
  p2=$(cat "$dir/w2.port")

  # shellcheck disable=SC2086
  "$cli" match --role coordinator $ddls \
    --workers "127.0.0.1:$p0" --workers "127.0.0.1:$p1" \
    --workers "127.0.0.1:$p2" \
    --v 0.6 --exchange-policy quorum:2 --log-level error --json \
    --trace-clock sim --trace-out "$dir/trace.json" \
    --metrics-out "$dir/metrics.json" \
    > "$dir/dist.json" || {
    echo "FAIL: quorum-scoped coordinator exited non-zero (run $run)" >&2
    exit 1
  }

  # The coordinator shut the surviving workers down; the crashed one is
  # long gone. Nothing should still be running.
  for pid in "$w0_pid" "$w1_pid" "$w2_pid"; do
    tries=0
    while kill -0 "$pid" 2> /dev/null; do
      tries=$((tries + 1))
      if [ "$tries" -gt 50 ]; then
        echo "FAIL: worker $pid still alive after shutdown (run $run)" >&2
        exit 1
      fi
      sleep 0.1
    done
  done
}

run_once 1

# The in-memory twin: same schemas, same v, same policy, with every
# fetch from publisher 2 dropped — exactly what killing w2 looks like.
# shellcheck disable=SC2086
"$cli" match $ddls \
  --v 0.6 --faults drop-from=2 --exchange-policy quorum:2 \
  --log-level error --json > "$scratch/mem.json"

python3 - "$scratch/run1/dist.json" "$scratch/mem.json" "$scratch" << 'EOF'
import json
import sys

dist = json.load(open(sys.argv[1]))
mem = json.load(open(sys.argv[2]))
scratch = sys.argv[3]

assert dist["status"] == "ok", dist["status"]

# The degradation report must name the lost peer: every surviving
# consumer (0, 1, 3) lost exactly publisher 2, and consumer 2 — whose
# owner died — was re-executed at the coordinator and lost nobody.
deg = dist["degradation"]
lost = sorted((p["consumer"], p["publisher"]) for p in deg["peers_lost"])
assert lost == [(0, 2), (1, 2), (3, 2)], lost
assert deg["policy"] == "quorum", deg["policy"]
assert deg["failed_fetches"] == 3, deg["failed_fetches"]

# The run must echo the full effective exchange + transport config,
# fault seed and ownership map included.
echo = dist["exchange_config"]
assert echo["transport"] == "tcp", echo["transport"]
assert echo["quorum"] == 2, echo["quorum"]
assert "seed" in echo["faults"]
assert [o["schema"] for o in echo["owners"]] == [0, 1, 2, 3]
mem_echo = mem["exchange_config"]
assert mem_echo["transport"] == "in_memory", mem_echo["transport"]
assert mem_echo["faults"]["drop_from"] == 2

# Merged metrics: the coordinator's own instruments plus the harvested
# worker.0.* / worker.1.* blocks — and nothing from the corpse.
metrics = dist["metrics"]
counters = metrics["counters"]
assert any(n.startswith("worker.0.") for n in counters), counters.keys()
assert any(n.startswith("worker.1.") for n in counters), counters.keys()
assert not any(n.startswith("worker.2.") for n in counters), counters.keys()
histograms = metrics["histograms"]
rpc = [n for n in histograms if n.startswith("net.rpc_ms.")]
for frame_type in ("assign", "assess", "stats_request", "shutdown"):
    assert f"net.rpc_ms.{frame_type}" in rpc, rpc
assert counters.get("net.bytes_sent.assign", 0) > 0
assert counters.get("net.bytes_received.partial", 0) > 0

# Merged trace: spans from the coordinator (pid 0) and both surviving
# workers (pids 1 and 2), all sharing the run trace id; the dead worker
# (pid 3) contributes no span — holes, not errors.
trace = json.load(open(f"{scratch}/run1/trace.json"))
run_trace_id = trace["trace_id"]
assert run_trace_id != 0
events = trace["traceEvents"]
spans_by_pid = {}
names_by_pid = {}
for event in events:
    if event["ph"] == "X":
        spans_by_pid.setdefault(event["pid"], []).append(event)
    elif event["ph"] == "M" and event["name"] == "process_name":
        names_by_pid[event["pid"]] = event["args"]["name"]
assert names_by_pid[0] == "coordinator", names_by_pid
assert names_by_pid[1] == "worker.0", names_by_pid
assert names_by_pid[2] == "worker.1", names_by_pid
assert 3 not in names_by_pid and 3 not in spans_by_pid, names_by_pid
coord_names = {e["name"] for e in spans_by_pid[0]}
for want in ("coordinator.run", "rpc.assign", "rpc.assess", "rpc.stats",
             "coordinator.reexec"):
    assert want in coord_names, coord_names
for worker_pid in (1, 2):
    worker_names = {e["name"] for e in spans_by_pid[worker_pid]}
    assert "worker.assign" in worker_names, (worker_pid, worker_names)
    assert "worker.assess" in worker_names, (worker_pid, worker_names)

# Cross-process parenting: each worker.assign span names one of the
# coordinator's rpc.assign span ids as its parent.
assign_span_ids = {e["args"]["span_id"] for e in spans_by_pid[0]
                   if e["name"] == "rpc.assign"}
for worker_pid in (1, 2):
    parents = {e["args"]["parent_span_id"] for e in spans_by_pid[worker_pid]
               if e["name"] == "worker.assign"}
    assert parents and parents <= assign_span_ids, (worker_pid, parents)

# The flight recorder names the dead worker at every round it missed —
# it acked assignment, then vanished.
flight = dist["flight_recorder"]
assert flight, "flight_recorder block missing from a degraded run"
details = [e["detail"] for e in flight if e["kind"] == "rpc"]
assert "assign worker=2 ok" in details, details
assert any(d.startswith("assess worker=2 ") and not d.endswith(" ok")
           for d in details), details
assert "stats worker=2 hole" in details, details
assert "stats worker=0 ok" in details, details

# Transport independence, byte for byte: the surviving assessment set
# (elements block) and the correspondences generated from it (linkages
# block) must be identical across the two transports.
for name, run in (("dist", dist), ("mem", mem)):
    blocks = {"elements": run["elements"], "linkages": run["linkages"]}
    with open(f"{scratch}/{name}.blocks", "w") as out:
        json.dump(blocks, out, sort_keys=True)
EOF

cmp "$scratch/dist.blocks" "$scratch/mem.blocks" || {
  echo "FAIL: distributed and in-memory elements/linkages differ" >&2
  exit 1
}

# Repeat the whole distributed run — fresh worker processes, fresh
# ephemeral ports, same seed — and require the telemetry surface to
# reproduce: trace and flight-recorder byte-identical, metrics
# identical modulo the peer-death race (see header). The full reports
# are NOT compared: the exchange_config ownership map legitimately
# embeds the new ports.
run_once 2

cmp "$scratch/run1/trace.json" "$scratch/run2/trace.json" || {
  echo "FAIL: merged trace differs between identical runs" >&2
  exit 1
}
python3 - "$scratch/run1" "$scratch/run2" << 'EOF'
import json
import sys

first_dir, second_dir = sys.argv[1], sys.argv[2]

flight1 = json.load(open(f"{first_dir}/dist.json"))["flight_recorder"]
flight2 = json.load(open(f"{second_dir}/dist.json"))["flight_recorder"]
assert flight1 == flight2, "flight_recorder blocks differ between runs"

metrics1 = json.load(open(f"{first_dir}/metrics.json"))
metrics2 = json.load(open(f"{second_dir}/metrics.json"))


def racy(name):
    """Counters that race with the moment w2's SIGKILL lands: the first
    fetch to it may be refused outright or connect and reset mid-read,
    moving one failure between fault kinds and shifting connect/frame/
    byte tallies (fault-kind names also ride inside stats payloads)."""
    base = name.split(".", 2)[2] if name.startswith("worker.") else name
    return (base.startswith("exchange.faults.")
            or base.startswith("net.bytes")
            or base.startswith("net.frames_")
            or base in ("net.connects", "net.connect_failures"))


for section in ("counters", "gauges", "histograms"):
    stable1 = {k: v for k, v in metrics1.get(section, {}).items()
               if not racy(k)}
    stable2 = {k: v for k, v in metrics2.get(section, {}).items()
               if not racy(k)}
    changed = [k for k in sorted(set(stable1) | set(stable2))
               if stable1.get(k) != stable2.get(k)]
    assert not changed, f"{section} differ between identical runs: {changed}"

# The race moves failures between fault kinds; it never creates or
# loses one. Per process, the fault totals must agree exactly.
for metrics in (metrics1, metrics2):
    metrics["fault_totals"] = {}
    for name, value in metrics["counters"].items():
        if racy(name) and ".faults." in name:
            prefix = name.split("exchange.faults.")[0]
            totals = metrics["fault_totals"]
            totals[prefix] = totals.get(prefix, 0) + value
assert metrics1["fault_totals"] == metrics2["fault_totals"], (
    metrics1["fault_totals"], metrics2["fault_totals"])
EOF

# Deadline: two healthy workers and a 1 ms budget on the simulated run
# clock, which runs out after phase I. The coordinator stops at the phase
# table's boundary exactly like the in-memory run — exit 0 with a
# partial deadline_exceeded report — and its shutdown round, which
# carries no run deadline, still stops both workers.
dir="$scratch/deadline"
mkdir -p "$dir"
w2_pid=""
# shellcheck disable=SC2086
"$cli" match --role worker $ddls --listen 127.0.0.1:0 \
  --port-file "$dir/w0.port" --log-level error 2> /dev/null &
w0_pid=$!
# shellcheck disable=SC2086
"$cli" match --role worker $ddls --listen 127.0.0.1:0 \
  --port-file "$dir/w1.port" --log-level error 2> /dev/null &
w1_pid=$!
for f in w0.port w1.port; do
  tries=0
  while [ ! -s "$dir/$f" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
      echo "FAIL: worker never wrote $f (deadline run)" >&2
      exit 1
    fi
    sleep 0.1
  done
done
# shellcheck disable=SC2086
"$cli" match --role coordinator $ddls \
  --workers "127.0.0.1:$(cat "$dir/w0.port")" \
  --workers "127.0.0.1:$(cat "$dir/w1.port")" \
  --deadline-ms 1 --run-clock sim --log-level error --json \
  > "$dir/dist.json" || {
  echo "FAIL: coordinator out of deadline exited non-zero" >&2
  exit 1
}
python3 - "$dir/dist.json" << 'EOF'
import json
import sys

report = json.load(open(sys.argv[1]))
assert report["status"] == "deadline_exceeded", report["status"]
assert report["phases_completed"] == ["signatures"], report["phases_completed"]
EOF
for pid in "$w0_pid" "$w1_pid"; do
  tries=0
  while kill -0 "$pid" 2> /dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -gt 50 ]; then
      echo "FAIL: worker $pid still alive 5 s after a deadline run" >&2
      exit 1
    fi
    sleep 0.1
  done
done

rm -rf "$scratch"
echo "distributed quorum degradation + telemetry OK"
