#!/usr/bin/env python3
"""Self-check of the benchmark definition.

    python3 perfbench/test_benchmark.py            # static + live runs
    python3 perfbench/test_benchmark.py --static   # BENCHMARK.json only

Checks that BENCHMARK.json names exactly the workloads and metrics
run.py declares, with the same units and directions, that every name
uses only [A-Za-z0-9_.-], and (live) that a short run of every
workload in both modes prints exactly those metric names.
"""

import json
import re
import subprocess
import sys
import unittest

import run as bench

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = bench.ROOT / "BENCHMARK.json"


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


class StaticTest(unittest.TestCase):
    def test_keys_and_command(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)

    def test_workloads_match(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bench.WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertNotIn("\n", w["why"])
            self.assertLessEqual(len(w["why"]), 200)

    def test_metrics_match(self):
        spec = load_spec()
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in spec["end_to_end"]],
            list(bench.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in spec["per_layer"]],
            [(n, u, b) for n, u, b, _ in bench.PER_LAYER])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_names_units_directions(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for m in spec["end_to_end"] + spec["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "duplicate name")


class LiveTest(unittest.TestCase):
    """Short runs: the printed names are exactly the declared ones."""

    def check(self, workload, trace, declared):
        proc = subprocess.run(
            [sys.executable, str(bench.BENCH_DIR / "run.py"),
             "--workload", workload, "--seconds", "1",
             "--trace", str(trace)],
            cwd=bench.ROOT, stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, f"{workload} trace {trace}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {n: m["unit"] for n, m in result["metrics"].items()},
            declared)

    def test_every_workload_prints_every_metric(self):
        spec = load_spec()
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for w in spec["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, end_to_end)
                self.check(w["name"], 1, per_layer)


if __name__ == "__main__":
    if "--static" in sys.argv:
        sys.argv.remove("--static")
        unittest.main(defaultTest="StaticTest")
    else:
        unittest.main()
