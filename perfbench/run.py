#!/usr/bin/env python3
"""Builds and runs the pmtree benchmark for one workload.

    python3 perfbench/run.py --workload read-dense --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first call configures and builds the
benchmark (the pmtree library plus the perfbench binary) under
$CARGO_TARGET_DIR, default .bench_build; later calls only re-check the
build. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A failed correctness gate
is reported as correct=false with no metrics and exit code 1.

    python3 perfbench/run.py --self-test

builds and runs the benchmark's own self-tests instead.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Budgets: a cold first call builds, then runs; later calls only run.
BUILD_LIMIT_S = 700
RUN_LIMIT_S = 170
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("pmtree sources not found next to perfbench/")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    deadline = time.monotonic() + BUILD_LIMIT_S
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", "4"])
    for cmd in steps:
        remaining = deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(remaining, 1))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return build_dir


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(result, trace):
    """Raises ValueError unless `result` has the documented result shape."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a count" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    if not result["correct"]:
        return
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    for name, m in result["metrics"].items():
        if not NAME.fullmatch(name):
            raise ValueError("bad metric name %r" % name)
        if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            raise ValueError("metric %s has no numeric value" % name)
    declared = declared_metrics(trace)
    if declared is not None and got != declared:
        raise ValueError("metrics %s differ from BENCHMARK.json %s"
                         % (got, declared))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["read-dense", "sparse-rw", "tenants-dram"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build_dir = build("perfbench_selftest")
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    binary = os.path.join(build("perfbench"), "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing (exit %d)" % done.returncode, 1)
    try:
        result = json.loads(lines[-1])
        check_result(result, args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        fail("malformed result: %s" % e, 1)
    if result["correct"] == (done.returncode != 0):
        fail("exit code %d disagrees with the result" % done.returncode, 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
