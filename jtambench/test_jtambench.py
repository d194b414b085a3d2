#!/usr/bin/env python3
"""Tests of the jtam benchmark itself.

    python3 jtambench/test_jtambench.py

Checks the metric declarations (BENCHMARK.json against jtambench/metrics.json,
name and unit syntax), then runs every workload three times with a one-second
budget (a few minutes in all) and checks that every declared metric is
emitted, that one seed run twice gives identical digests and counts, that
another seed changes only the quicksort digests, and that traced and
untraced digests agree.
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
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNTS = ("mdp.instructions", "driver.trace_blocks", "cache.accesses",
          "mdp.rounds", "mdp.awake_frac", "net.messages",
          "net.inj_stall_cycles")
OTHER_SEED = 3


def load(path):
    with open(path) as f:
        return json.load(f)


def run_bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stderr[-3000:])
    lines = out.stdout.strip().splitlines()
    report = next(l for l in lines if l.startswith("report "))
    return json.loads(report[len("report "):]), json.loads(lines[-1])


DECL = load(os.path.join(HERE, "metrics.json"))
BENCH = load(os.path.join(ROOT, "BENCHMARK.json"))


class Declarations(unittest.TestCase):
    def test_benchmark_json_has_exactly_the_contract_keys(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_setup_s_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in BENCH["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]),
                         ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))

    def test_benchmark_json_mirrors_the_declarations(self):
        for kind in ("end_to_end", "per_layer"):
            declared = {n: (m["unit"], m["better"])
                        for n, m in DECL["metrics"].items()
                        if m["kind"] == kind}
            listed = {m["name"]: (m["unit"], m["better"]) for m in BENCH[kind]}
            self.assertEqual(listed, declared, kind)
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(DECL["workloads"]))

    def test_names_units_clocks_and_workloads_are_valid(self):
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in BENCH[k]] + [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for n, m in DECL["metrics"].items():
            self.assertRegex(m["unit"], UNIT, n)
            self.assertIn(m["clock"], ("host", "simulated"), n)
            self.assertIn(m["better"], ("lower", "higher"), n)
            for w in m["workloads"]:
                self.assertIn(w, list(DECL["workloads"]) + ["all"], n)


class Workloads(unittest.TestCase):
    """Per workload: (OTHER_SEED, traced) twice, (default seed, untraced)."""

    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in DECL["workloads"]:
            cls.runs[w] = [run_bench(w, OTHER_SEED, 1),
                           run_bench(w, OTHER_SEED, 1),
                           run_bench(w, DECL["default_seed"], 0)]

    @staticmethod
    def digests(report):
        return {s["id"]: s["digest"] for s in report["sims"]}

    def test_every_declared_metric_is_emitted_and_correct(self):
        for w, runs in self.runs.items():
            for (_, result), kind in zip(runs, ("per_layer", "per_layer",
                                                "end_to_end")):
                self.assertTrue(result["correct"], w)
                self.assertEqual(result["failed"], 0, w)
                self.assertGreaterEqual(result["attempted"], 1, w)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in BENCH[kind]}, w)
            self.assertEqual(runs[0][1]["metrics"]["ops_failed_frac"]["value"],
                             0, w)

    def test_same_seed_twice_gives_identical_digests_and_counts(self):
        for w, runs in self.runs.items():
            (rep_a, res_a), (rep_b, res_b) = runs[0], runs[1]
            self.assertEqual(self.digests(rep_a), self.digests(rep_b), w)
            for c in COUNTS:
                self.assertEqual(res_a["metrics"][c], res_b["metrics"][c],
                                 (w, c))

    def test_another_seed_changes_only_quicksort_digests(self):
        for w, runs in self.runs.items():
            other, default = self.digests(runs[0][0]), self.digests(runs[2][0])
            self.assertEqual(set(other), set(default), w)
            for sim, d in default.items():
                if sim.startswith("qs/"):
                    self.assertNotEqual(other[sim], d, (w, sim))
                else:
                    self.assertEqual(other[sim], d, (w, sim))

    def test_traced_and_untraced_digests_agree(self):
        # A traced run makes a warm-up pass and alternating untraced and
        # traced passes; any digest change between them fails the run.
        for w, runs in self.runs.items():
            for sim in runs[0][0]["sims"]:
                self.assertGreaterEqual(sim["runs"], 3, (w, sim["id"]))
                self.assertEqual(sim["failed"], 0, (w, sim["id"]))


class Standalone(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "jtambench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "jtambench/run.py", "--workload",
                 "granularity", "--seed", "0", "--seconds", "1", "--trace",
                 "0"], capture_output=True, text=True, cwd=tmp, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
