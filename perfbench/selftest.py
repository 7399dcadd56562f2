#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at its tiny shape in both modes and checks that
each metric BENCHMARK.json declares is printed, in order, with its unit,
on the summary lines and in the JSON result. It then corrupts one output
per kind — one flipped keep bit (corpus_many) and one altered reply byte
(serve_mixed) — and checks the run reports it as failed, exits non-zero
and does not count it as served. Finally it copies only BENCHMARK.json
and perfbench/ into a scratch checkout and checks that the benchmark
refuses to run there.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "7"
SECONDS = "1"


def run(workload, trace, *extra, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace),
         "--tiny", *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900,
        check=False)


def result_of(done):
    lines = done.stdout.strip().split("\n")
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(spec, workload, trace, failures):
    declared = spec["per_layer" if trace else "end_to_end"]
    done = run(workload, trace)
    label = f"{workload} trace={trace}"
    if done.returncode != 0:
        failures.append(f"{label}: exit {done.returncode}\n{done.stderr}")
        return
    result, summary = result_of(done)
    if not result["correct"] or result["failed"] != 0:
        failures.append(f"{label}: reported a failed check")
    if result["attempted"] < 1:
        failures.append(f"{label}: attempted nothing")
    names = list(result["metrics"])
    if names != [m["name"] for m in declared]:
        failures.append(f"{label}: metrics {names} differ from BENCHMARK.json")
    for metric in declared:
        got = result["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"]:
            failures.append(f"{label}: {metric['name']} unit {got.get('unit')}"
                            f" != {metric['unit']}")
        if not any(line.startswith("# " + metric["name"] + " ")
                   and line.endswith(" " + metric["unit"])
                   for line in summary):
            failures.append(f"{label}: summary line for {metric['name']} "
                            "missing")
    print(f"ok   {label}: {len(names)} metrics, "
          f"{result['attempted']} operations")


def check_corruption(workload, kind, failures):
    done = run(workload, 0, "--corrupt", kind)
    label = f"{workload} --corrupt {kind}"
    result, _ = result_of(done)
    attempted, failed = result["attempted"], result["failed"]
    served = result["metrics"]["ok_fraction"]["value"] * attempted
    if done.returncode == 0 or result["correct"] or failed < 1:
        failures.append(f"{label}: corruption was not reported as failed")
    elif round(served) != attempted - failed:
        failures.append(f"{label}: corrupted output counted as served")
    else:
        print(f"ok   {label}: {failed} of {attempted} failed, exit "
              f"{done.returncode}")


def check_refuses_without_sources(failures):
    scratch = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(scratch, "perfbench"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch,
                                                         ".bench_build"))
    done = run("corpus_many", 0, cwd=scratch, env=env)
    shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        failures.append("bare checkout: expected a non-zero exit and no "
                        "result line")
    else:
        print(f"ok   bare checkout: exit {done.returncode}, no result")


def check_documented(spec, failures):
    """workloads.json defines every end-to-end metric and maps every
    per-layer one, naming no other."""
    with open(os.path.join(ROOT, "perfbench", "workloads.json"),
              encoding="utf-8") as f:
        documented = json.load(f)
    pairs = (("end_to_end", list(documented["end_to_end"])),
             ("per_layer", [m["metric"] for m in documented["layer_map"]]))
    for kind, names in pairs:
        declared = [m["name"] for m in spec[kind]]
        if sorted(names) != sorted(declared):
            failures.append(f"workloads.json {kind} names {names} differ "
                            f"from BENCHMARK.json {declared}")
        else:
            print(f"ok   workloads.json documents every {kind} metric")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = []
    check_documented(spec, failures)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_metrics(spec, workload["name"], trace, failures)
    check_corruption("corpus_many", "keep", failures)
    check_corruption("serve_mixed", "reply", failures)
    check_refuses_without_sources(failures)
    for failure in failures:
        print("FAIL " + failure)
    print("selftest: " + ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
