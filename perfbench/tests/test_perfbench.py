"""Tests of the repo benchmark: tiny runs of every workload.

    python3 -m unittest discover -s perfbench/tests

Each run builds perfbench/ first (incremental after the first build).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("web_zipf", "wide_churn", "cluster_tcp")
# wide_churn updates before every 100th query, so its tiny stream still
# has one update event inside it.
TINY_STREAM = {"web_zipf": 24, "wide_churn": 101, "cluster_tcp": 24}
DETERMINISTIC = ("recall", "bytes_per_query", "messages_per_query")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def tiny_run(workload, seed=5, trace=0):
    """Runs one tiny pass; returns (stdout lines, result object)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace),
         "--stream", str(TINY_STREAM[workload])],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def printed(lines, key):
    """The value of `key=` on the output's check lines."""
    for line in lines:
        m = re.search(rf"\b{key}=([0-9a-f]+)", line)
        if m:
            return m.group(1)
    raise AssertionError(f"no {key}= in output")


class PerfbenchTest(unittest.TestCase):

    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = tiny_run(workload)
                self.check_metrics(result, BENCHMARK["end_to_end"])
                for m in BENCHMARK["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                # Re-running the seed repeats every deterministic figure.
                again_lines, again = tiny_run(workload)
                for name in DETERMINISTIC:
                    self.assertEqual(result["metrics"][name]["value"],
                                     again["metrics"][name]["value"], name)
                self.assertEqual(printed(lines, "fingerprint"),
                                 printed(again_lines, "fingerprint"))

    def test_traced_replay_reproduces_the_untraced_fingerprint(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = tiny_run(workload, trace=1)
                self.check_metrics(result, BENCHMARK["per_layer"])
                self.assertEqual(printed(lines, "replay_fingerprint"),
                                 printed(lines, "fingerprint"))
                metrics = result["metrics"]
                self.assertGreater(metrics["trace.coverage"]["value"], 0)
                wire = metrics["net.wire_us"]["value"]
                if workload == "cluster_tcp":
                    self.assertNotEqual(wire, 0)
                else:
                    self.assertEqual(wire, 0)

    def test_another_seed_draws_another_stream(self):
        lines, _ = tiny_run("web_zipf", seed=5)
        other, _ = tiny_run("web_zipf", seed=6)
        self.assertNotEqual(printed(lines, "fingerprint"),
                            printed(other, "fingerprint"))

    def test_refuses_without_the_repository_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "perfbench")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "web_zipf",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
