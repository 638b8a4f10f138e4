#!/usr/bin/env python3
"""Self-test of the benchmark's generator, output checks and tracer.

    python3 perfbench/selftest.py

Runs from a source checkout in well under a minute.  Generated files go to
a temporary directory outside the source tree.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from gridpi import scenario  # noqa: E402


def _tree(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="gridpi-selftest-")

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_same_seed_gives_identical_files_and_they_parse(self):
        for workload in ("design_sweep", "event_storm"):
            a, b, c = (os.path.join(self.tmp, f"{workload}{k}") for k in "abc")
            made = gen.generate(workload, 5, a)
            gen.generate(workload, 5, b)
            gen.generate(workload, 6, c)
            self.assertTrue(made)
            self.assertEqual(_tree(a), _tree(b))
            self.assertNotEqual(_tree(a), _tree(c))
            for meta in made.values():
                loaded = scenario.load_network(meta["grid"])
                self.assertEqual(loaded.net.n_buses, meta["n"])
                scn = scenario.load_scenario(meta["scn"])
                self.assertEqual(scn.network.net.n_buses, meta["n"])

    def test_storm_events_are_distinct_and_inside_the_first_half(self):
        made = gen.generate("event_storm", 3, self.tmp)
        scn = scenario.load_scenario(made["storm_dist_pi"]["scn"])
        times = [t for t, _, _ in scn.schedule]
        self.assertEqual(len(set(times)), gen.STORM_EVENTS)
        self.assertLess(max(times), 0.5 * gen.STORM_HORIZON_S)


class OutputCheckTest(unittest.TestCase):
    """Real CLI outputs on a small mesh pass; perturbed copies fail."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp(prefix="gridpi-selftest-")
        rng = np.random.default_rng(11)
        cls.n = 6
        cls.grid = os.path.join(cls.tmp, "small.grid")
        gen.write_mesh(cls.grid, rng, cls.n)
        cls.kp, cls.ki = gen.controller_gains(rng, cls.n)
        events = [(0.5, 2, 30.0), (1.0, 5, -20.0), (1.0, 1, 10.0)]
        cls.scn = {}
        for kind in ("dist_pi", "p"):
            path = os.path.join(cls.tmp, f"small_{kind}.scn")
            gen.write_scenario(path, "small.grid", kind, cls.kp, cls.ki, events, 3.0, 0.01, 0.05)
            cls.scn[kind] = path
        cls.env = run.child_env()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def _run(self, op, traced=False):
        spans = os.path.join(self.tmp, "spans.json") if traced else None
        return run.run_op(op, self.env, self.tmp, time.monotonic() + 60.0, spans)

    def _simulate(self, kind):
        csv = os.path.join(self.tmp, f"small_{kind}.csv")
        ref = checks.Reference(scenario.load_scenario(self.scn[kind]))
        op = run.Op(kind, "simulate", ["simulate", self.scn[kind], "--output", csv],
                    lambda code, out: checks.check_simulate(ref, code, out, csv, True), csv=csv)
        return op, ref, csv

    def test_simulate_passes_and_perturbations_fail(self):
        for kind in ("dist_pi", "p"):
            op, ref, csv = self._simulate(kind)
            res = self._run(op)
            self.assertEqual(res.problems, [], kind)
            with open(csv, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()

            def fails_with(csv_lines, stdout=res.stdout, code=res.exit_code):
                with open(csv, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(csv_lines) + "\n")
                return checks.check_simulate(ref, code, stdout, csv, True)

            last = lines[-1].split(",")
            bumped = last[:1] + ["%.17g" % (float(last[1]) + 1e-6)] + last[2:]
            scaled = last[:-1] + ["%.17g" % (float(last[-1]) * (1 + 1e-6))]
            self.assertTrue(fails_with(lines[:-1] + [",".join(bumped)]), "frequency bumped")
            self.assertTrue(fails_with(lines[:-1] + [",".join(scaled)]), "last value scaled")
            self.assertTrue(fails_with(lines[:3] + lines[4:]), "row dropped")
            self.assertTrue(fails_with([lines[0].replace("u_", "v_")] + lines[1:]), "header")
            self.assertEqual(fails_with(lines), [])
            flipped = res.stdout.replace("verdict: positive", "verdict: negative")
            self.assertTrue(fails_with(lines, stdout=flipped), "verdict flipped")
            other = "no" if "settled: yes" in res.stdout else "yes"
            flipped = res.stdout.replace("settled: yes", "settled: no") \
                if other == "no" else res.stdout.replace("settled: no", "settled: yes")
            self.assertTrue(fails_with(lines, stdout=flipped), "settled flipped")
            self.assertTrue(fails_with(lines, code=2), "exit status")

    def test_analysis_commands_pass_and_perturbations_fail(self):
        gains = ["--kp", run._gains(self.kp), "--ki", run._gains(self.ki)]
        ops = {
            "rank-test": run.Op("r", "rank-test", ["rank-test", self.grid, "--ki",
                                                   run._gains(self.ki)],
                                lambda code, out: checks.check_rank_test(code, out, self.n)),
            "gamma-bound": run.Op("g", "gamma-bound",
                                  ["gamma-bound", self.grid, "--spectral"] + gains,
                                  checks.check_gamma_bound),
            "analyze": run.Op("a", "analyze", ["analyze", self.scn["dist_pi"]],
                              checks.check_analyze),
        }
        outputs = {name: self._run(op) for name, op in ops.items()}
        for name, res in outputs.items():
            self.assertEqual(res.problems, [], name)
        res = outputs["rank-test"]
        self.assertTrue(checks.check_rank_test(
            res.exit_code, res.stdout.replace(f"(deficiency {self.n})", "(deficiency 1)"), self.n))
        res = outputs["gamma-bound"]
        bar = checks._line(res.stdout, "gamma_bar =")
        star = checks._line(res.stdout, "eigenvalue-based threshold ~=")
        low = "%.9g" % (0.5 * float(bar))
        self.assertTrue(checks.check_gamma_bound(res.exit_code, res.stdout.replace(star, low)))
        res = outputs["analyze"]
        self.assertTrue(checks.check_analyze(
            res.exit_code, res.stdout.replace("zero modes: 1 (0 observable)",
                                              "zero modes: 1 (1 observable)")))
        self.assertTrue(checks.check_analyze(
            res.exit_code, res.stdout.replace("verdict: positive", "verdict: negative")))

    def test_traced_run_prints_the_same_and_counts_stage_loops(self):
        op, _, _ = self._simulate("dist_pi")
        plain = self._run(op)
        traced = self._run(op, traced=True)
        self.assertEqual(traced.problems, [])
        self.assertEqual(plain.stdout.replace(op.csv, ""), traced.stdout.replace(op.csv, ""))
        with open(os.path.join(self.tmp, "spans.json"), "r", encoding="utf-8") as fh:
            values, extra = run.layer_metrics(json.load(fh), traced.stderr)
        self.assertEqual(extra["stages"], 3)  # t = 0, 0.5 and 1.0 (merged)
        self.assertEqual(extra["stage_loops"], extra["stages"])
        self.assertEqual(values["numerics.rk4_steps"], 300)
        self.assertEqual(extra["csv_rows"], 61)
        self.assertGreater(values["numerics.integrate_s"], 0.0)
        self.assertGreater(values["cli.import_s"], values["numerics.import_s"])


if __name__ == "__main__":
    unittest.main()
