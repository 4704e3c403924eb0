#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and compiles
perfbench (and the coordination libraries it drives) into .bench_build/;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: 0 when every correctness check passed, non-zero otherwise.

    python3 perfbench/run.py --test

builds and runs the benchmark's own unit tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    """Configures and builds `target`; returns False on failure."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", target, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="run the unit tests")
    args = parser.parse_args()

    if args.test:
        if not build("perfbench_tests"):
            return 3
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 3
    sys.stdout.flush()
    spans = os.path.join(
        BUILD, "spans-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--spans", spans]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
