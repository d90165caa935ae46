#!/usr/bin/env python3
"""End-to-end ExecutionService benchmark: build, then run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload cloud_poisson --seed 1 --seconds 10 --trace 0

The first call configures and builds the library plus the e2e_bench binary
under $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); later
calls only re-check the build. Build output goes to stderr, so the last
line of stdout is always the benchmark's JSON result. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of the traced replay.
Exits non-zero when the build fails (printing no result) or an output
check fails (the result then reads "correct": false).
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cloud_poisson", "unique_burst", "vqe_sweep")
RUN_TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # Serialize concurrent invocations on one build tree.
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "build.ninja")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "e2e_bench",
             "-j", jobs],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.exists(os.path.join(ROOT, "src", "service",
                                       "service.hpp")):
        print("e2ebench: no qucp sources next to the benchmark; run it "
              "from a full checkout", file=sys.stderr)
        return 2
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(os.path.abspath(target_dir), "e2ebench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
