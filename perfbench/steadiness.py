#!/usr/bin/env python3
"""Steadiness report: run-to-run spread of every end-to-end metric.

Runs each workload repeatedly, each run a fresh process with its own
seed (perfbench/run.py), and prints every end-to-end metric's median,
quartiles and spread (IQR / median) beside its bound in BENCHMARK.json.
These are the data the bounds are set from. With --traced it also runs
the traced replay per seed and prints the traced-minus-untraced query
time.

    python3 perfbench/steadiness.py --runs 10 --seconds 10
    python3 perfbench/steadiness.py --workloads wide_churn --runs 5 --traced
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="web_zipf,wide_churn,cluster_tcp")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--traced", action="store_true",
                        help="also run the traced replay for every seed")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(workload, s, args.seconds, 0) for s in seeds]
        print(f"{workload}: {args.runs} runs, seeds {seeds.start}.."
              f"{seeds.stop - 1}")
        print(f"  {'metric':20s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            q1, median, q3 = quartiles([r[name] for r in runs])
            spread = (q3 - q1) / median if median else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "" if spread < bound / 3 else "  (above bound/3)"
            print(f"  {name:20s} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:6.3f}{flag}")
        if args.traced:
            diffs = []
            for s in seeds:
                m = run_once(workload, s, args.seconds, 1)
                diffs.append(m["trace.query_us"] - m["trace.untraced_query_us"])
            q1, median, q3 = quartiles(diffs)
            print(f"  traced-minus-untraced query time: median {median:.1f} us "
                  f"(q1 {q1:.1f}, q3 {q3:.1f})")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
