#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result line.

    python3 perfbench/run.py --workload serve_read --seed 7 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, Release) into .bench_build
(or $CARGO_TARGET_DIR when set); later calls rebuild incrementally. The
workload's parameters are constants of the perfbench binary
(perfbench/workloads.json records them). The last line of standard
output is the binary's JSON result; build output goes to standard
error. The exit status is the binary's (nonzero on a failed correctness
gate) or 1 when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_read", "analytics_batch")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(build_dir))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
