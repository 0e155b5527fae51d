#!/usr/bin/env python3
"""Build and run the lbmem benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload offline|modechange|churn \
        --seed N --seconds S --trace 0|1

The first call configures and builds the library and the benchmark in
Release into the build directory ($CARGO_TARGET_DIR, default .bench_build)
and runs the benchmark's unit test; later calls only rebuild what changed.
The benchmark's text lines go to stdout, followed by one JSON result line.
The exit code is the benchmark's: 0 when every output check passed, 1 when
one failed. Any other failure (no sources to build, a failed build, a
result line that does not match BENCHMARK.json) exits non-zero without a
result line.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline", "modechange", "churn")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
# A run must end within this many seconds of its start once the build is
# done (the benchmark itself needs about 2 x --seconds plus set-up).
RUN_BUDGET_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure (once) and build; returns the benchmark binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "lbmem"))):
        fail("the lbmem sources (CMakeLists.txt, src/lbmem) are missing")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--parallel", jobs])
    steps.append([os.path.join(out, "perfbench_test")])
    for step in steps:
        # Build chatter goes to stderr: stdout is the benchmark's.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "lbmem_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Fail unless the result line has the contract's shape and metrics."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last line is not a JSON result: " + line[:200])
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        fail("the result has the wrong keys")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            fail(key + " is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if not NAME_RE.fullmatch(name):
            fail("bad metric name " + repr(name))
        if sorted(metric) != ["unit", "value"] or not isinstance(
                metric["value"], (int, float)):
            fail("bad metric " + name)
    declared = declared_metrics(trace)
    if sorted(metrics) != sorted(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)
    started = time.monotonic()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            out, "spans-%s-%d.csv" % (args.workload, args.seed))]
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_BUDGET_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines or not lines[-1]:
        fail("the benchmark exited with code %d" % run.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write("wall_s %.3f (run %s, seed %d)\n"
                     % (time.monotonic() - started, args.workload, args.seed))
    print(lines[-1])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
