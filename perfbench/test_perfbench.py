#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py        # from the repository root

Builds the benchmark through run.py (like any run) and checks that
  - BENCHMARK.json and the benchmark's metric tables agree, and every
    name matches [A-Za-z0-9_.-]+;
  - each workload emits exactly the end-to-end metrics untraced and the
    per-layer metrics traced, each with its unit;
  - the output checks trip, with a non-zero exit and "correct": false, on
    an injected wrong served score and on an injected non-finite model.
Short runs (--seconds 2) keep the suite under a minute.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+\Z")


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, seconds=2, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=600)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        b = bench()
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)

    def test_tables_match_benchmark_json(self):
        with open(os.path.join(HERE, "cpp", "report.cpp")) as f:
            source = f.read()
        b = bench()

        def table(var):
            start = source.index(var)
            block = source[start:source.index("};", start)]
            return re.findall(r'\{"([^"]+)", "([^"]+)"\}', block)

        self.assertEqual(table("kEndToEnd"),
                         [(m["name"], m["unit"]) for m in b["end_to_end"]])
        self.assertEqual(table("kPerLayer"),
                         [(m["name"], m["unit"]) for m in b["per_layer"]])


class EmittedMetrics(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(list(result), ["correct", "attempted", "failed",
                                        "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in specs))
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_each_workload_emits_its_metrics(self):
        b = bench()
        for workload in (w["name"] for w in b["workloads"]):
            with self.subTest(workload=workload, trace=0):
                code, result = run(workload, trace=0)
                self.assertEqual(code, 0)
                self.check_metrics(result, b["end_to_end"])
                for m in b["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
            with self.subTest(workload=workload, trace=1):
                code, result = run(workload, trace=1)
                self.assertEqual(code, 0)
                self.check_metrics(result, b["per_layer"])
                self.assertEqual(
                    result["metrics"]["obs.trace_dropped"]["value"], 0)


class OutputChecks(unittest.TestCase):
    def test_wrong_served_score_fails_the_run(self):
        code, result = run("serve_gate", inject="wrong_score")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_nonfinite_model_fails_the_run(self):
        for workload in ("hogwild_dense", "cluster_sparse"):
            with self.subTest(workload=workload):
                code, result = run(workload, inject="nonfinite_model")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
