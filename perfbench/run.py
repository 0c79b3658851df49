#!/usr/bin/env python3
"""Builds and runs the rtsmooth performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
library from src/) in Release under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild
only what changed. Build output goes to stderr. Each workload's report goes
to stdout and ends with one JSON line {correct, attempted, failed, metrics}.
The exit status is non-zero when a build fails or any correctness check
fails. --selftest builds and runs the benchmark's own unit tests.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["paper_sweep", "gateway_churn", "daemon_pipe"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out_dir = build_dir()
    if not build(out_dir):
        return 1
    sys.stdout.flush()
    if args.selftest:
        return subprocess.run([os.path.join(out_dir, "perfbench_tests")]).returncode

    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [os.path.join(out_dir, "perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", out_dir]
        if args.trace == "1":
            cmd += ["--spans", os.path.join(out_dir, "spans-%s.txt" % workload)]
        status = subprocess.run(cmd, env=env).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
