#!/usr/bin/env python3
"""End-to-end benchmark of the Dynamo reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the repo's src/
libraries plus the dynamo_perfbench binary) under .bench_build/ and
later calls rebuild incrementally. The binary runs one workload in one
single-threaded process; its last stdout line, which this script checks
and passes through, is the JSON result. --trace 1 prints the per-layer
metrics instead of the end-to-end ones and writes the spans of the
traced passes to .bench_build/traces/.

--selftest runs every workload of BENCHMARK.json in the binary's quick
mode (tiny sizes, same checks), untraced and traced, and checks that
each result is correct and names exactly the metrics BENCHMARK.json
declares.
"""

import argparse
import fcntl
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "dynamo_perfbench"

# The binary's budget: a whole run must end within 180 s.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; one build at a time."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "Makefile").exists():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", jobs,
             "--target", "dynamo_perfbench"],
            stdout=sys.stderr, check=True)


def run_binary(args):
    """Run the binary; return (exit code, stdout lines)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, cwd=BUILD,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The JSON result on the last line, or None when malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def run_workload(workload, seed, seconds, trace, quick=False):
    traces = BUILD.parent / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    if quick:
        args.append("--quick")
    return run_binary(args)


def selftest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = run_workload(workload, 1, 1, trace, quick=True)
            result = parse_result(lines)
            label = f"{workload} trace={trace}"
            if code != 0 or result is None:
                failures.append(f"{label}: exit {code}, result {result}")
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics {sorted(units)} differ "
                                f"from BENCHMARK.json")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append(f"{label}: {lines[-1]}")
            print(f"{label}: ok ({len(units)} metrics)")
    for failure in failures:
        print(f"SELFTEST FAILED: {failure}")
    print("selftest ok" if not failures else "selftest failed")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, same checks and metric names")
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if not opts.selftest and not opts.workload:
        parser.error("--workload is required")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 1

    if opts.selftest:
        return selftest()

    code, lines = run_workload(opts.workload, opts.seed, opts.seconds,
                               opts.trace, opts.quick)
    for line in lines:
        print(line)
    if parse_result(lines) is None:
        log("no JSON result on the last line")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
