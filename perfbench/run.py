#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload web_zipf --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the iqn libraries from src/ plus the iqn_perfbench
driver) into .bench_build/perfbench, then runs the driver once. The last
line of stdout is the result JSON; with --trace 1 the run is the traced
per-layer replay and its spans go to .bench_build/perfbench/spans/.
Build output goes to stderr. See perfbench/README.md for the metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "iqn_perfbench")
WORKLOADS = ("web_zipf", "wide_churn", "cluster_tcp")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no iqn sources under {ROOT}/src; run from a full checkout")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD_DIR, "--target", "iqn_perfbench",
              "-j", jobs], max(1, deadline - time.monotonic()))


def check_result(line):
    """True when `line` is a well-formed result object."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return False
    metrics = result["metrics"]
    return (isinstance(metrics, dict) and metrics
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and all(set(m) == {"value", "unit"} for m in metrics.values()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stream", type=int, default=0,
                        help="queries per pass (0 = the workload's own; "
                             "tests use tiny streams)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.stream < 0:
        fail("--seed and --stream must be >= 0, --seconds > 0")

    build()
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--stream={args.stream}"]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd.append("--spans_out=" + os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not check_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited {proc.returncode} without a result")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
