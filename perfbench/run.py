#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sa-text-open --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build): CMake configures
perfbench/CMakeLists.txt, which builds the repository's library with its
default options plus the perfbench binary.

An untraced run (--trace 0) splits --seconds over PROCESSES benchmark processes,
each with its own inputs derived from --seed, and reports each end-to-end
metric as the median over them: on a virtual machine a whole process runs
faster or slower by several percent (memory placement, co-tenants), and the
median over processes damps that. A traced run (--trace 1) is one process.
Their human-readable lines are passed through; the last stdout line
is the JSON result, printed only after its metric names are checked against
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).
Traced runs write their spans to <build dir>/traces/.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sa-text-open", "ac-binary-batch-closed", "sa-churn-open")
RUN_TIMEOUT_S = 170
PROCESSES = 4


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, merge_stderr=False):
    """Runs cmd in its own process group; on timeout kills the whole group
    (build tools spawn children) and waits for it. Returns (code, out, err),
    code None on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT if merge_stderr else subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
        return proc.returncode, out, err or ""
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "", ""


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns the binary."""
    def step(cmd):
        code, out, _ = run(cmd, 850, merge_stderr=True)
        return code == 0, out

    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", str(os.cpu_count() or 1)]
    ok, log = True, ""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        ok, log = step(configure)
    if ok:
        ok, log = step(compile_)
    if not ok:
        sys.stderr.write(log)
        fail(3, "build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail(2, "--seed must be >= 0 and --seconds in [1, 600]")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(2, f"no repository sources next to {HERE}; nothing to measure")
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    processes = 1 if args.trace else min(PROCESSES, args.seconds)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results, code = [], 0
    for i in range(processes):
        seconds = args.seconds // processes + (i < args.seconds % processes)
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed * PROCESSES + i), "--seconds", str(seconds),
               "--trace", str(args.trace), "--trace-dir", trace_dir]
        returncode, stdout, stderr = run(cmd, deadline - time.monotonic())
        if returncode is None:
            fail(4, f"run exceeded {RUN_TIMEOUT_S}s")
        sys.stderr.write(stderr)
        lines = stdout.rstrip("\n").split("\n")
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            print(lines[-1] if lines else "")
            fail(returncode or 5, "benchmark printed no result")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail(5, f"metric names/units differ from BENCHMARK.json: "
                    f"missing {sorted(set(expected) - set(got))}, "
                    f"extra {sorted(set(got) - set(expected))}")
        results.append(result)
        code = code or returncode
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": statistics.median(
                               r["metrics"][name]["value"] for r in results),
                           "unit": unit}
                    for name, unit in expected.items()},
    }
    print(json.dumps(merged))
    sys.exit(code)


if __name__ == "__main__":
    main()
