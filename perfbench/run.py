#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

    python3 perfbench/run.py --workload simultaneous_par --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout, and so do the traces, self-time tables and
scratch files of a run (in its out/ directory). Build output goes to stderr;
the benchmark's own output, ending in one JSON result line, goes to stdout.
The exit status is the benchmark's: 0 when every output check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["join_topk", "bounded_quantized", "simultaneous_par", "serve_evict"]


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", os.path.join(CHECKOUT, "perfbench"), "-B",
                   cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(cmake_dir, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(CHECKOUT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "-C", CHECKOUT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(CHECKOUT, build_dir)
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.selftest:
        command = [binary, "--selftest", "--out-dir", out_dir]
    else:
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out-dir", out_dir, "--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
