#!/usr/bin/env python3
"""Builds and runs the CAMS benchmark (see camsbench/README.md).

Usage, from the root of the repository:

    python3 camsbench/run.py --workload compile-2c --seed 1 \\
        --seconds 10 --trace 0

The benchmark is a CMake package of its own (camsbench/CMakeLists.txt)
that compiles the cams library from src/. It is configured and built
incrementally under $CARGO_TARGET_DIR (default .bench_build) in the
current directory, so the first run of a checkout also builds. Build
output goes to standard error; the last line of standard output is the
JSON result of cams_bench.

    python3 camsbench/run.py --self-test

builds and runs the benchmark's own unit tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compile-2c", "race-4c", "rebuild-2c")
DEFAULT_SEED = 0xCA5CADE5  # the suite's defaultSuiteSeed

# A run must end within 180 s; leave room for this wrapper.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build(build_dir, tests):
    """Configures (once) and builds the package; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCAMSBENCH_TESTS=" + ("ON" if tests else "OFF")])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr,
                                  stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("camsbench: build step failed: %s" % err,
                  file=sys.stderr)
            return False
        if done.returncode != 0:
            print("camsbench: build failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)

    if args.self_test:
        build_dir = os.path.join(target, "camsbench-test")
        if not build(build_dir, tests=True):
            return 1
        return subprocess.run(["ctest", "--test-dir", build_dir,
                               "--output-on-failure"],
                              timeout=RUN_TIMEOUT_S).returncode

    build_dir = os.path.join(target, "camsbench")
    if not build(build_dir, tests=False):
        return 1
    command = [os.path.join(build_dir, "cams_bench"),
               "--workload", args.workload,
               "--seed", str(args.seed % 2**64),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               # Relative, so the server's socket path stays short.
               "--work-dir", os.path.relpath(
                   os.path.join(target, "camsbench-work"))]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("camsbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
