"""The benchmark's own tests: checkers catch wrong results, inputs repeat
per seed, every workload runs at smoke length, and a directory without
mucut sources is refused.

    python3 -m pytest bench/test_bench.py    (or python3 -m unittest)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import worker  # noqa: E402
import wl_algebra  # noqa: E402
import wl_cli  # noqa: E402
import wl_spectral  # noqa: E402
from spans import NULL  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


class CheckerCountsWrongResults(unittest.TestCase):
    def setUp(self):
        self.ctx = worker.Context(ROOT)

    def test_algebra_wrong_recomposition(self):
        runner = wl_algebra.Runner(wl_algebra.generate(3, n=2), self.ctx)
        out = runner.run(0, NULL)
        self.assertIsNone(runner.check(0, out, NULL))
        out["recomposed"] = out["recomposed"] + out["c"]
        failure = worker.check_one(runner, 0, out, NULL, {})
        self.assertEqual(failure["reason"],
                         "recomposed factors differ from the product")

    def test_spectral_wrong_count(self):
        specs = wl_spectral.generate(3)
        runner = wl_spectral.Runner(specs, self.ctx)
        full = next(i for i, s in enumerate(specs)
                    if s["kind"] == "weyl" and s["op"] == "dd_rl"
                    and s["window"] == 64 and s["perturb"] is None)
        out = runner.run(full, NULL)
        self.assertIsNone(runner.check(full, out, NULL))
        wrong = runner.m.ExperimentReport.build(
            out.params, [o + 1 for o in out.observed], out.predicted)
        failure = worker.check_one(runner, full, wrong, NULL, {})
        self.assertTrue(failure["reason"].startswith("count below"))

    def test_cli_wrong_outputs(self):
        specs = wl_cli.generate(3)
        lens = next(s for s in specs if s["kind"] == "cone-lens")
        good = {"schema": "mucut/1", "cone": {},
                "normal_form": {"p": lens["expect"]["index"], "q": 0}}
        self.assertIsNone(wl_cli.check_output(lens, 0,
                                              json.dumps(good).encode()))
        wrong = dict(good, normal_form={"p": lens["expect"]["index"] + 1,
                                        "q": 0})
        self.assertIsNotNone(wl_cli.check_output(
            lens, 0, json.dumps(wrong).encode()))
        self.assertIsNotNone(wl_cli.check_output(lens, 1, b""))
        self.assertIsNotNone(wl_cli.check_output(lens, 0, b"not json"))

        runner = wl_cli.Runner(specs, self.ctx)
        i = specs.index(lens)
        out = (0, json.dumps(good).encode())
        self.assertIsNone(runner.check(i, out, NULL))
        failure = worker.check_one(runner, i, (0, json.dumps(wrong).encode()),
                                   NULL, {})
        self.assertEqual(failure["reason"],
                         "identical argv gave different stdout")


class KnownDefectsStayOutOfTheTimedMix(unittest.TestCase):
    def test_no_timed_request_is_a_known_defect_kind(self):
        ctx = worker.Context(ROOT)
        for mod in (wl_algebra, wl_spectral, wl_cli):
            for seed in (1, 2, 3):
                specs = mod.generate(seed) if mod is not wl_algebra \
                    else mod.generate(seed, n=10)
                runner = mod.Runner(specs, ctx)
                kinds = {runner.kind(i) for i in range(len(specs))}
                self.assertFalse(kinds & set(mod.KNOWN_DEFECTS), mod)

    def test_probes_fail_as_documented(self):
        ctx = worker.Context(ROOT)
        for mod in (wl_spectral, wl_cli):
            found = worker.probe_defects(mod, 3, ctx)
            self.assertTrue(found)
            for probe in found:
                self.assertIsNotNone(probe["reason"], probe)
                self.assertTrue(probe["expected"], probe)


class InputsRepeatPerSeed(unittest.TestCase):
    def test_same_seed_same_digest_and_counts(self):
        for mod in (wl_algebra, wl_spectral, wl_cli):
            first, again = mod.generate(11), mod.generate(11)
            self.assertEqual(gen.digest(first), gen.digest(again))
            self.assertEqual(mod.counters(first), mod.counters(again))
            self.assertNotEqual(gen.digest(first),
                                gen.digest(mod.generate(12)))


class Smoke(unittest.TestCase):
    def result(self, done):
        self.assertEqual(done.returncode, 0, done.stderr)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_each_workload_end_to_end(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in ("algebra", "spectral", "cli"):
            result = self.result(bench("--workload", workload, "--seed", "5",
                                       "--seconds", "1", "--trace", "0",
                                       "--smoke"))
            self.assertTrue(result["correct"], workload)
            self.assertEqual(set(result["metrics"]), names)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})

    def test_traced_run_reports_every_layer_metric(self):
        result = self.result(bench("--workload", "algebra", "--seed", "5",
                                   "--seconds", "1", "--trace", "1",
                                   "--smoke"))
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in SPEC["per_layer"]})

    def test_refuses_a_directory_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_out")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "algebra", "--seed", "1", "--seconds",
                         "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
