#!/usr/bin/env python3
"""Builds and runs the colscope end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload corpus_many --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later calls only re-check the build. The workload's
shape comes from perfbench/workloads.json; the metric names, units and
order come from BENCHMARK.json alone. The last stdout line is the run's
JSON result; the exit status is non-zero when a check failed.

Extra flags for the self-test: --tiny (the workload's tiny shape) and
--corrupt keep|reply (deliberately corrupt one output).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("colscope sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench")


def declared_metrics(trace):
    """The metrics BENCHMARK.json declares for this mode, in its order."""
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def normalize(result, declared, per_layer):
    """Orders the result's metrics as BENCHMARK.json declares them.

    A per-layer metric the workload does not exercise is reported as 0.
    A missing end-to-end metric, a wrong unit or an undeclared metric is
    a failed check. Returns the problems found.
    """
    produced = dict(result["metrics"])
    ordered = {}
    problems = []
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        got = produced.pop(name, None)
        if got is None:
            if not per_layer:
                problems.append(f"metric {name} is missing")
            got = {"value": 0.0, "unit": unit}
        elif got["unit"] != unit:
            problems.append(f"metric {name} has unit {got['unit']}, "
                            f"expected {unit}")
        ordered[name] = {"value": got["value"], "unit": unit}
    problems += [f"undeclared metric {name}" for name in produced]
    result["metrics"] = ordered
    if problems:
        result["correct"] = False
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", choices=("none", "keep", "reply"),
                        default="none")
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(sorted(workloads))}")
    workload = workloads[args.workload]
    flags = dict(workload["flags"])
    if args.tiny:
        flags.update(workload["tiny"])

    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--corrupt", args.corrupt, "--work-dir", work_dir]
    for name, value in flags.items():
        command += ["--" + name, str(value)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the benchmark printed no result line")

    problems = normalize(result, declared_metrics(args.trace), args.trace)
    for problem in problems:
        print(f"perfbench/run.py: check failed: {problem}", file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"# {name:<34} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps(result))
    sys.exit(1 if problems else done.returncode)


if __name__ == "__main__":
    main()
