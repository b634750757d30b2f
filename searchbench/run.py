#!/usr/bin/env python3
"""Builds and runs the search benchmark from the root of a source checkout.

    python3 searchbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/searchbench (default .bench_build/searchbench),
relative to the checkout root. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Exits nonzero, without a
result line, when the build, the self-test or the run fails.
"""
import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def run(cmd, timeout, **kwargs):
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
        return 124


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(root, target, "searchbench")
    jobs = str(min(4, os.cpu_count() or 1))

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        rc = run(["cmake", "-S", bench_dir, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                 BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            return rc or 1
    rc = run(["cmake", "--build", build, "-j", jobs, "--target", "searchbench"],
             BUILD_TIMEOUT_S, stdout=sys.stderr)
    if rc != 0:
        return rc

    binary = os.path.join(build, "searchbench")
    rc = run([binary, "--self-test"], 60, stdout=sys.stderr)
    if rc != 0:
        return rc or 1
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", os.path.join(build, "runs")],
               RUN_TIMEOUT_S, cwd=root)


if __name__ == "__main__":
    sys.exit(main())
