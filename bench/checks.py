"""Quick checks of the benchmark itself.

    python3 bench/checks.py

They take about a minute: every metric named in BENCHMARK.json is printed
with its unit, two seeds give equal item counts with different parameters,
a reported mismatch, a missing item or a missing report raises fail_ratio,
and traced self times sum to the traced wall time within
tracing.SELF_SUM_TOLERANCE.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import (WORKLOADS, Inputs, check_report, deg9_items,  # noqa: E402
                       make_inputs, params_key)

WORKDIR = ROOT / ".bench_tmp" / "checks"


def setUpModule():
    WORKDIR.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        WORKDIR.parent.rmdir()
    except OSError:
        pass


def child(*args: str) -> dict:
    """Run a bench/child.py step in a fresh process; returns its JSON line."""
    out = subprocess.run([sys.executable, str(BENCH / "child.py"), *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cli(argv: list) -> dict:
    """Run a cppforge command through child.py and return its report."""
    report = WORKDIR / "report.json"
    child("run", str(report), "--", *argv)
    return json.loads(report.read_text())


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", "c-goodness-scan",
                 "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(set(result["metrics"]), set(expected))
            for name, unit in expected.items():
                self.assertEqual(result["metrics"][name]["unit"], unit, name)
                self.assertTrue(any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}")
                                    for ln in lines), name)

    def test_refuses_without_sources(self):
        bare = WORKDIR / "bare"
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = subprocess.run([sys.executable, "bench/run.py", "--workload", "deg9-scan",
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


class Seeds(unittest.TestCase):
    def test_two_seeds_equal_counts_different_parameters(self):
        for name in WORKLOADS:
            one, two = (make_inputs(name, seed) for seed in (1, 2))
            self.assertEqual(len(one.items), len(two.items), name)
            if name == "deg9-scan":      # its seed is unused
                self.assertEqual(one, two)
            else:
                self.assertNotEqual(sorted(one.items), sorted(two.items), name)

    def test_same_seed_same_inputs(self):
        for name in WORKLOADS:
            self.assertEqual(make_inputs(name, 7), make_inputs(name, 7))


class FailedItems(unittest.TestCase):
    def test_failures_raise_fail_ratio(self):
        inputs = Inputs(["scan", "--family", "Deg9", "--p", "3", "--m", "1"],
                        [params_key(i) for i in deg9_items(3)])
        report = cli(inputs.argv)
        base = check_report(inputs, report)
        self.assertTrue(base.report_ok)
        self.assertEqual(base.completed, len(inputs.items))
        mismatched = {params_key(m["params"]) for m in report["mismatches"]}
        clean = next(k for k in inputs.items if k not in mismatched)
        injected = json.loads(json.dumps(report))
        injected["mismatches"].append({"params": json.loads(clean), "kind": "Injected"})
        self.assertEqual(check_report(inputs, injected).failed, base.failed + 1)
        missing = json.loads(json.dumps(report))
        missing["counts"]["constructed"] -= 1
        self.assertEqual(check_report(inputs, missing).failed, base.failed + 1)
        crashed = check_report(inputs, None)
        self.assertEqual((crashed.failed, crashed.report_ok), (len(inputs.items), False))


class TracedSelfTimes(unittest.TestCase):
    """The traced run of the benchmark itself: child.py trace, in a fresh process."""

    def check(self, argv: list) -> dict:
        spans_path, traced_path = WORKDIR / "spans.json", WORKDIR / "traced.json"
        child("trace", str(traced_path), str(spans_path), "--", *argv)
        data = json.loads(spans_path.read_text())
        metrics, shares = tracing.layer_metrics(dict(data, untraced_wall_s=data["wall_s"]))
        self.assertLessEqual(metrics["trace.self_sum_error"][0], tracing.SELF_SUM_TOLERANCE)
        self.assertAlmostEqual(sum(v for v, _ in shares.values()), 1.0,
                               delta=tracing.SELF_SUM_TOLERANCE)
        spans = data["spans"]
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                self.assertLessEqual(spans[parent][1], start, name)
                self.assertLessEqual(end, spans[parent][2], name)
        plain, traced = cli(argv), json.loads(traced_path.read_text())
        for rep in (plain, traced):
            rep.pop("timingSec")
        self.assertEqual(plain, traced, "tracing changed the report")
        return metrics

    def test_char2_scan(self):
        metrics = self.check(["scan", "--family", "A2", "--p", "2", "--m", "3", "--n", "4"])
        self.assertGreater(metrics["gf.artin_schreier_root.calls"][0], 0)
        self.assertGreater(metrics["cpp_core.is_cpp_monomial.elements"][0], 0)

    def test_deg9_scan(self):
        metrics = self.check(["scan", "--family", "Deg9", "--p", "3", "--m", "1"])
        self.assertGreater(metrics["families.classify_deg9.calls"][0], 0)
        self.assertGreater(metrics["poly.roots_in.calls"][0], 0)


if __name__ == "__main__":
    unittest.main()
