"""Scan orchestration: which items reach witness extraction."""

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cppforge
from cppforge import cli, cpp_core, families, gf
from cppforge.cli import ScanConfig, main, run_scan
from cppforge.cpp_core import goodness
from cppforge.gf import mk_field, mk_tower


def _run_python(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """`python *args` in a child process that imports this cppforge, stopped after timeout s."""
    src = str(Path(cppforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=path))


def _run_module(*argv: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """`python -m cppforge *argv` in a child process, stopped after timeout s."""
    return _run_python("-m", "cppforge", *argv, timeout=timeout)


class TestScanDegreeGuard:
    def test_d_lin2_skips_items_of_wrong_degree(self):
        # GF(16^3): the r = 1 item has degree 2 != n + 1 and yields no witness;
        # the r = 2 item has degree 4 and yields three witnesses, decided by
        # the criterion, their one class cross-checked by a brute force
        report = run_scan(ScanConfig("scan", p=2, m=4, n=3, family="D_lin2"))
        assert report.mismatches == []
        assert [w.params for w in report.witnesses] == [{"r": 2}] * 3
        assert all(w.verified == "Permutation" and w.passed
                   for w in report.witnesses)
        assert report.counts["witnessClasses"] == report.counts["crossCheckedClasses"] == 1

    def test_d_lin2_scan_exits_0(self):
        assert main(["scan", "--p", "2", "--m", "4", "--family", "D_lin2",
                     "--n", "3"]) == 0


# GF((2^3)^4): A1 with e = 0 is one ZeroShift skip; its three items give 12
# witnesses.  A2 gives 56 items and 210 witnesses in 4 classes.  Without a
# tower, Deg9 over GF(3) classifies 54 shapes, and B over GF(5) builds 25
# items and skips 35 (ExceptionalityViolated) among them.
A1_CASE = dict(p=2, m=3, n=4, family="A1", ranges={"e": [0, 1, 2, 3]})
A2_CASE = dict(p=2, m=3, n=4, family="A2")
DEG9_CASE = dict(p=3, family="Deg9")
B_CASE = dict(p=5, family="B")


def _report_json(report) -> dict:
    out = report.to_json()
    del out["timingSec"]
    del out["config"]["workers"]
    return out


class TestSerialParallelAgreement:
    @pytest.mark.parametrize("case, skipped, items, verified",
                             [(A1_CASE, 1, 3, 12), (A2_CASE, 0, 56, 210),
                              (DEG9_CASE, 0, 54, 0), (B_CASE, 35, 25, 0)],
                             ids=["A1", "A2", "Deg9", "B"])
    def test_one_and_two_workers_agree(self, case, skipped, items, verified):
        serial = run_scan(ScanConfig("scan", workers=1, **case))
        parallel = run_scan(ScanConfig("scan", workers=2, **case))
        assert _report_json(serial) == _report_json(parallel)
        assert serial.mismatches == []
        assert serial.counts["skipped"] == skipped
        assert serial.counts["constructed"] == items
        assert len(serial.witnesses) == serial.counts["verifiedCpp"] == verified


def _untabled_a2_tower(monkeypatch):
    """The interned tower of A2_CASE, its exp/log tables cleared for the test."""
    tower = mk_tower(mk_field(2, 3), 4)
    for key in ("_exp", "_log"):
        monkeypatch.setattr(tower, key, None)
    return tower


class TestItemsBuiltWhereChecked:
    def test_only_the_first_item_is_built_without_tables(self, monkeypatch):
        # the first brute force builds the tables, so later constructions
        # multiply through them; built all up front, every item would not
        tower = _untabled_a2_tower(monkeypatch)
        construct_a2 = families.construct_a2
        untabled = []

        def recording(*args):
            untabled.append(tower._log is None)
            return construct_a2(*args)

        monkeypatch.setattr(families, "construct_a2", recording)
        report = run_scan(ScanConfig("scan", workers=1, **A2_CASE))
        assert report.counts["constructed"] == len(untabled) == 56
        assert not any(untabled[1:])

    def test_roots_are_located_with_tables(self, monkeypatch):
        # the first item with witnesses builds the tables before one_root,
        # so no root is located by table-free tower multiplication
        _untabled_a2_tower(monkeypatch)
        one_root, mul_slow = cpp_core.one_root, gf.Context._mul_slow
        inside, slow = [], []

        def locating(*args):
            inside.append(True)
            try:
                return one_root(*args)
            finally:
                inside.pop()

        def counting(ctx, a, b):
            slow.extend(inside[-1:])
            return mul_slow(ctx, a, b)

        monkeypatch.setattr(cpp_core, "one_root", locating)
        monkeypatch.setattr(gf.Context, "_mul_slow", counting)
        report = run_scan(ScanConfig("scan", workers=1, **A2_CASE))
        assert len(report.witnesses) == 210
        assert slow == []

    def test_parent_builds_no_item_and_no_table(self, monkeypatch, tmp_path):
        tower = _untabled_a2_tower(monkeypatch)
        construct_a2 = families.construct_a2
        pids = tmp_path / "pids"

        def recording(*args):
            with open(pids, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return construct_a2(*args)

        monkeypatch.setattr(families, "construct_a2", recording)
        report = run_scan(ScanConfig("scan", workers=2, **A2_CASE))
        calls = pids.read_text().split()
        assert report.counts["constructed"] == len(calls) == 56
        assert str(os.getpid()) not in calls
        assert tower._log is None


class TestInternalError:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_item_is_recorded_and_the_scan_goes_on(self, monkeypatch, workers):
        construct_a2 = families.construct_a2

        def failing(base, n, a, e):
            if e == 5:
                raise RuntimeError(f"no item for e = {e}")
            return construct_a2(base, n, a, e)

        monkeypatch.setattr(families, "construct_a2", failing)
        report = run_scan(ScanConfig("scan", workers=workers, ranges={"a": [1]},
                                     **A2_CASE))
        assert report.exit_code == 3
        [error] = report.internal_errors
        assert (error["kind"], error["params"], error["exception"], error["message"]) == (
            "InternalError", {"a": 1, "e": 5}, "RuntimeError", "no item for e = 5")
        assert "raise RuntimeError" in error["traceback"][-1]
        # with two workers e = 5 sits inside the second chunk: e = 6 and 7 follow it
        rest = run_scan(ScanConfig("scan", ranges={"a": [1], "e": [0, 1, 2, 3, 4, 6, 7]},
                                   **A2_CASE))
        report.internal_errors = []
        assert _report_json(report) == _report_json(rest)
        assert report.counts["constructed"] == 7


class TestPredictedRootMismatch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_shifted_root_is_reported(self, monkeypatch, workers):
        predicted_roots = cli.predicted_roots

        def shifted(fp, tower):
            r0, *rest = predicted_roots(fp, tower)
            return [(r0 + 1) % tower.order, *rest]

        monkeypatch.setattr(cli, "predicted_roots", shifted)
        report = run_scan(ScanConfig("scan", workers=workers, **A2_CASE))
        kinds = [m["kind"] for m in report.mismatches]
        assert kinds == ["PredictedRootMismatch"] * 56


class TestFamilyBRoots:
    def test_predicted_roots_are_the_roots_of_v_g(self):
        # B over GF(5) with 1 < r < n and e != 0 once predicted the roots y of
        # g instead of the roots -y of v_g; every B item of GF(5^4) now agrees
        report = run_scan(ScanConfig("scan", p=5, m=1, n=4, family="B"))
        assert report.mismatches == [] and report.internal_errors == []
        assert report.counts["constructed"] == 25
        assert {w.params["r"] for w in report.witnesses} == {2, 4}
        assert any(w.params["r"] == 2 and w.params["e"] for w in report.witnesses)


class TestRootsOnlyInTheScanTower:
    """Constructors decide over GF(q); only the scan expresses predicted roots."""

    @pytest.mark.parametrize("argv", [
        ["scan", "--family", "B", "--p", "5"],
        ["construct", "--family", "A1", "--p", "3", "--n", "4"],
    ], ids=["scan-B-without-n", "construct-A1"])
    def test_no_tower_is_built_for_roots(self, argv, monkeypatch, tmp_path, capsys):
        calls = []
        mk_tower = families.mk_tower

        def spy(base, n):
            calls.append(n)
            return mk_tower(base, n)

        monkeypatch.setattr(families, "mk_tower", spy)
        monkeypatch.chdir(tmp_path)
        assert main(argv + (["--out", "r.json"] if argv[0] == "scan" else [])) == 0
        assert calls == []

    def test_d_lin3_scan_brute_forces_its_witnesses(self, tmp_path):
        # GF(8^7): the one D_lin3 item has degree 2^3 = n + 1 and 7 witnesses;
        # the criterion labels them, and one brute force checks their class
        report = _cli_report(tmp_path, "scan", "--family", "D_lin3", "--p", "2",
                             "--m", "3", "--n", "7")
        assert report["counts"]["constructed"] == 1
        assert [(w["verified"], w["passed"]) for w in report["witnesses"]] == [
            ("Permutation", True)] * 7
        assert report["counts"]["witnessClasses"] == 1
        assert report["counts"]["crossCheckedClasses"] == 1


def _spy_brute_force(monkeypatch, result=lambda b, brute: brute) -> list:
    """Replace cpp_core.is_cpp_monomial by a spy; returns the b of its calls."""
    calls = []
    real = cpp_core.is_cpp_monomial

    def spy(b, tower):
        calls.append(b)
        return result(b, real(b, tower))

    monkeypatch.setattr(cpp_core, "is_cpp_monomial", spy)
    return calls


class TestCrossCheckOncePerClass:
    """scan labels witnesses by the criterion and brute-forces one per class."""

    def test_one_brute_force_per_class_with_witnesses(self, monkeypatch):
        calls = _spy_brute_force(monkeypatch)
        report = run_scan(ScanConfig("scan", workers=1, **A2_CASE))
        assert report.mismatches == []
        assert len(calls) == report.counts["witnessClasses"] == 4
        assert report.counts["crossCheckedClasses"] == 4
        assert {w.verified for w in report.witnesses} == {"Permutation"}

    def test_negated_brute_force_disagrees_once_per_class(self, monkeypatch, tmp_path):
        calls = _spy_brute_force(monkeypatch, lambda b, brute: not brute)
        report = run_scan(ScanConfig("scan", workers=1, **A2_CASE))
        assert report.exit_code == 1
        assert [m["kind"] for m in report.mismatches] == ["CrossCheckDisagreement"] * 4
        assert [m["b"] for m in report.mismatches] == calls
        assert all((m["criterion"], m["bruteForce"]) == (True, False)
                   for m in report.mismatches)
        assert main(["scan", "--p", "2", "--m", "3", "--n", "4", "--family", "A2",
                     "--out", str(tmp_path / "r.json")]) == 1

    def test_failed_brute_force_leaves_the_class_to_the_next_item(self, monkeypatch):
        # the first brute force raises: its item is an internal error, and the
        # next item of that class runs the cross-check instead
        def failing_once(b, brute):
            if len(calls) == 1:
                raise RuntimeError("brute force failed")
            return brute

        calls = _spy_brute_force(monkeypatch, failing_once)
        report = run_scan(ScanConfig("scan", workers=1, **A2_CASE))
        assert [e["message"] for e in report.internal_errors] == ["brute force failed"]
        assert report.mismatches == []
        assert len(calls) == 5
        assert report.counts["crossCheckedClasses"] == report.counts["witnessClasses"] == 4

    def test_tower_past_the_brute_bound_is_not_cross_checked(self, monkeypatch):
        calls = _spy_brute_force(monkeypatch)
        monkeypatch.setattr(gf, "DEFAULT_BRUTE_BOUND", 8)
        report = run_scan(ScanConfig("scan", **A1_CASE))
        assert calls == [] and report.mismatches == []
        assert report.counts["witnessClasses"] == 1
        assert report.counts["crossCheckedClasses"] == 0


class TestFamilyBPastTheTower:
    def test_gf11_items_get_verdicts(self):
        # GF(11^10) is past the field bound; the B items need it only for
        # their predicted roots, so none is skipped as FieldTooLarge
        report = run_scan(ScanConfig("scan", p=11, family="B"))
        assert report.counts["constructed"] == 242
        assert {s["reason"] for s in report.skips} == {"ExceptionalityViolated"}
        assert report.mismatches == []


class TestVerdictRules:
    """scan and verify decide each witness by the gate and report it alike."""

    # GF(16) with n = 1: g = x^2 + zeta x is good but does not permute GF(16)
    D2_SCAN = ["scan", "--p", "2", "--m", "4", "--family", "D_lin2", "--n", "1"]

    @staticmethod
    def _verdicts(report: dict) -> list:
        return [(w["verified"], w["passed"]) for w in report["witnesses"]]

    def test_d2_witness_fails_the_criterion(self, tmp_path, monkeypatch):
        # G_b = t (t + b) vanishes at 0 and b, so it is no permutation of
        # GF(16); with the brute bound below 16 nothing but the gate runs
        monkeypatch.setattr(gf, "DEFAULT_BRUTE_BOUND", 8)
        calls = _spy_brute_force(monkeypatch)
        path, out = tmp_path / "d2.json", tmp_path / "verify.json"
        assert main(self.D2_SCAN + ["--out", str(path)]) == 1
        assert main(["verify", str(path), "--out", str(out)]) == 1
        for report in (json.loads(path.read_text()), json.loads(out.read_text())):
            assert [m["kind"] for m in report["mismatches"]] == ["WitnessCriterionFailure"]
            assert self._verdicts(report) == [("Permutation", False)]
            assert report["counts"]["verifiedCpp"] == report["counts"]["distinctCpp"] == 0
        assert calls == []

    def test_verify_reports_its_own_verdict(self, tmp_path):
        # the file claims a passed witness; verify lists and counts its own
        path, out = tmp_path / "d2.json", tmp_path / "verify.json"
        assert main(self.D2_SCAN + ["--out", str(path)]) == 1
        obj = json.loads(path.read_text())
        obj["witnesses"] = [dict(w, passed=True) for w in obj["witnesses"]]
        path.write_text(json.dumps(obj))
        assert main(["verify", str(path), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert [m["kind"] for m in report["mismatches"]] == ["WitnessCriterionFailure"]
        assert self._verdicts(report) == [("Permutation", False)]
        assert report["counts"]["verifiedCpp"] == 0

    def test_scan_past_the_bound_decides_by_the_criterion(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gf, "DEFAULT_BRUTE_BOUND", 8)
        out = tmp_path / "scan.json"
        assert main(["scan", "--family", "A1", "--p", "2", "--m", "3", "--n", "4",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(self._verdicts(report)) == {("Permutation", True)}
        assert report["counts"]["verifiedCpp"] == len(report["witnesses"]) == 28
        assert report["counts"]["crossCheckedClasses"] == 0

    def test_gcd_above_one_fails_by_the_permutation_rule(self, tmp_path, monkeypatch):
        # GF(7^2): d = 9 and gcd(9, 48) = 3, so x^d, and with it 3^(-1) x^d,
        # is no permutation; the brute force says so too, and there is no
        # disagreement
        calls = _spy_brute_force(monkeypatch)
        path, out = tmp_path / "gf49.json", tmp_path / "verify.json"
        path.write_text(json.dumps({"witnesses": [{
            "p": 7, "m": 1, "n": 2, "modulus": [0, 1], "extModulus": [[1], [0], [1]],
            "d": 9, "b": [[3], [0]], "family": "", "params": {},
            "verified": "Permutation", "passed": True}]}))
        assert main(["verify", str(path), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert self._verdicts(report) == [("Permutation", False)]
        assert [m["kind"] for m in report["mismatches"]] == ["WitnessCriterionFailure"]
        assert calls == [3]

    def test_verify_reads_a_file_with_brute_force_labels(self, tmp_path):
        # a file written before the gate decided verify: its config carries
        # bruteBound and its witnesses the rule BruteForce; verify reads it
        # and reports its own rule
        path, out = tmp_path / "old.json", tmp_path / "verify.json"
        assert main(["scan", "--family", "A1", "--p", "3", "--m", "1", "--n", "4",
                     "--range", '{"e": [1]}', "--out", str(path)]) == 0
        obj = json.loads(path.read_text())
        obj["config"] = {"command": "verify", "path": "witnesses.json",
                         "bruteBound": 1 << 24}
        obj["witnesses"] = [dict(w, verified="BruteForce") for w in obj["witnesses"]]
        path.write_text(json.dumps(obj))
        assert main(["verify", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert self._verdicts(report) == [("Permutation", True)] * 4
        assert report["mismatches"] == []
        assert report["config"] == {"command": "verify", "path": str(path)}

    def test_criterion_over_a_prime_past_a_signed_byte(self, tmp_path):
        # 137^4 is past the brute bound, so G_b = (t + 1)^5 - 1 is evaluated
        # over GF(137), a permutation since gcd(5, 136) = 1; digits of 137
        # wrapped in an int8 digit matrix and failed all four witnesses
        out = tmp_path / "scan.json"
        assert main(["scan", "--family", "A1", "--p", "137", "--m", "1", "--n", "4",
                     "--range", '{"e": [1]}', "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mismatches"] == []
        assert self._verdicts(report) == [("Permutation", True)] * 4


class TestWitnessFileRoundTrip:
    # GF(16) with n = 1 is D2 (one failed witness); A1 over GF(9^4) has no
    # good item, so no witness
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv, witnesses", [
        (["D_lin2", "--p", "2", "--m", "4", "--n", "1"], 1),
        (["A2", "--p", "2", "--m", "3", "--n", "4"], 210),
        (["A1", "--p", "3", "--m", "2", "--n", "4"], 0),
        (["B", "--p", "5", "--n", "4"], 76),
        (["D_lin3", "--p", "2", "--m", "3", "--n", "7"], 7),
    ], ids=["D2", "A2", "A1", "B", "D_lin3"])
    def test_verify_reproduces_each_verdict_of_the_scan(self, tmp_path, monkeypatch,
                                                        argv, witnesses, fmt):
        scanned, verified = tmp_path / f"witnesses.{fmt}", tmp_path / "verify.json"
        code = main(["scan", "--family", *argv, "--out", str(tmp_path / "scan.json")])
        assert main(["scan", "--family", *argv, "--format", fmt,
                     "--out", str(scanned)]) == code
        calls = _spy_brute_force(monkeypatch)
        assert main(["verify", str(scanned), "--out", str(verified)]) == code
        scan = json.loads((tmp_path / "scan.json").read_text())
        report = json.loads(verified.read_text())

        def listed(rep):
            return [(w["b"], w["verified"], w["passed"]) for w in rep["witnesses"]]

        def failures(rep):
            return [m["kind"] for m in rep["mismatches"] if m["kind"].startswith("Witness")]

        assert len(scan["witnesses"]) == witnesses
        assert listed(report) == listed(scan)
        # the same failure kinds, and no CrossCheckDisagreement beside them
        assert failures(report) == failures(scan)
        assert [m["kind"] for m in report["mismatches"]] == failures(report)
        # every witness fits the brute bound, so each is cross-checked once
        assert len(calls) == report["counts"]["crossChecked"] == witnesses

    def test_verify_counts_no_cross_check_past_the_brute_bound(self, tmp_path, monkeypatch):
        # GF(5^4) has 625 elements: below the bound every witness is
        # brute-forced, above it none, and the verdicts stay the gate's
        scanned = tmp_path / "witnesses.json"
        assert main(["scan", "--family", "B", "--p", "5", "--n", "4",
                     "--out", str(scanned)]) == 0
        reports = []
        for bound in (gf.DEFAULT_BRUTE_BOUND, 5 ** 4 - 1):
            monkeypatch.setattr(gf, "DEFAULT_BRUTE_BOUND", bound)
            verified = tmp_path / f"verify-{bound}.json"
            assert main(["verify", str(scanned), "--out", str(verified)]) == 0
            reports.append(json.loads(verified.read_text()))
        assert [r["counts"]["crossChecked"] for r in reports] == [76, 0]
        assert reports[0]["witnesses"] == reports[1]["witnesses"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_scan_then_verify(self, tmp_path, fmt):
        scanned = tmp_path / f"witnesses.{fmt}"
        verified = tmp_path / "verify.json"
        assert main(["scan", "--p", "2", "--m", "3", "--n", "4",
                     "--family", "A1", "--range", '{"e": [0, 1, 2, 3]}',
                     "--format", fmt, "--out", str(scanned)]) == 0
        assert main(["verify", str(scanned), "--out", str(verified)]) == 0
        report = json.loads(verified.read_text())
        assert report["counts"]["verifiedCpp"] == 12
        assert report["mismatches"] == []


class TestMalformedWitness:
    """b must be n coordinates of m digits in [0, p), not all zero, and in CSV
    b_base_p must lie in [0, order); a record that is not is a mismatch, and
    the valid record beside it is still checked."""

    # A1 over GF(3^4), m = 1 and n = 4, with e = 1: four witnesses
    SCAN = ["scan", "--p", "3", "--m", "1", "--n", "4", "--family", "A1",
            "--range", '{"e": [1]}']

    @pytest.mark.parametrize("fmt, key, spoil", [
        ("json", "b", lambda b: [[x + 3 for x in c] for c in b]),
        ("json", "b", lambda b: b + [[0]]),
        ("json", "b", lambda b: [[0] for _ in b]),
        ("csv", "b_base_p", lambda b: str(int(b) + 81)),
        ("csv", "p", lambda p: "x"),
    ], ids=["digits-raised-by-p", "extra-coordinate", "zero", "csv-past-order",
            "csv-p-not-an-int"])
    def test_reported_next_to_a_valid_record(self, tmp_path, fmt, key, spoil):
        path = tmp_path / f"witnesses.{fmt}"
        assert main(self.SCAN + ["--format", fmt, "--out", str(path)]) == 0
        if fmt == "json":
            good = json.loads(path.read_text())["witnesses"][0]
            path.write_text(json.dumps([dict(good, **{key: spoil(good[key])}), good]))
        else:
            header, good = list(csv.reader(path.read_text().splitlines()[1:]))[:2]
            bad = list(good)
            i = header.index(key)
            bad[i] = spoil(good[i])
            buf = io.StringIO()
            csv.writer(buf).writerows([header, bad, good])
            path.write_text(buf.getvalue())
        out = tmp_path / "verify.json"
        assert main(["verify", str(path), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert [m["kind"] for m in report["mismatches"]] == ["ParseOrFieldMismatch"]
        assert report["counts"]["verifiedCpp"] == 1

    @pytest.mark.parametrize("spoil", [
        lambda w: dict(w, p=str(w["p"])),
        lambda w: dict(w, n=float(w["n"])),
        lambda w: dict(w, d=str(w["d"])),
        lambda w: dict(w, m=w["m"] == 1),
        lambda w: dict(w, modulus=[str(c) for c in w["modulus"]]),
        lambda w: dict(w, extModulus=[float(x) for c in w["extModulus"] for x in c]),
        lambda w: [w["p"], w["m"]],
    ], ids=["string-p", "float-n", "string-d", "bool-m", "string-modulus",
            "flat-float-ext-modulus", "record-not-an-object"])
    def test_record_of_wrong_json_type(self, tmp_path, spoil):
        path = tmp_path / "witnesses.json"
        assert main(self.SCAN + ["--out", str(path)]) == 0
        good = json.loads(path.read_text())["witnesses"][0]
        path.write_text(json.dumps([spoil(good), good]))
        out = tmp_path / "verify.json"
        assert main(["verify", str(path), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert [m["kind"] for m in report["mismatches"]] == ["ParseOrFieldMismatch"]
        assert report["counts"]["verifiedCpp"] == 1

    def test_huge_prime_p(self, tmp_path):
        # 10^18 + 3 is prime and past the field bound, which rejects it; run
        # apart, with a timeout
        path = tmp_path / "witnesses.json"
        assert main(self.SCAN + ["--out", str(path)]) == 0
        good = json.loads(path.read_text())["witnesses"][0]
        path.write_text(json.dumps([dict(good, p=10 ** 18 + 3), good]))
        out = tmp_path / "verify.json"
        proc = _run_module("verify", str(path), "--out", str(out), timeout=30)
        assert proc.returncode == 1
        report = json.loads(out.read_text())
        assert [m["kind"] for m in report["mismatches"]] == ["ParseOrFieldMismatch"]
        assert "exceeds the configured field bound" in report["mismatches"][0]["detail"]
        assert report["counts"]["verifiedCpp"] == 1


class TestDistinctCpp:
    def test_items_sharing_b_count_once(self, tmp_path):
        # B over GF(5^4) with r = 4, a = 2: the items e = 0 and e = 1 both
        # yield the four witnesses b in GF(5)* y^3, so 8 witnesses, 4 distinct b
        out = tmp_path / "scan.json"
        assert main(["scan", "--p", "5", "--m", "1", "--n", "4", "--family", "B",
                     "--range", '{"r": [4], "a": [2], "e": [0, 1]}',
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["counts"]["verifiedCpp"] == 8
        assert report["counts"]["distinctCpp"] == 4
        assert len({json.dumps(w["b"]) for w in report["witnesses"]}) == 4


SCAN = ["scan", "--p", "2", "--m", "3", "--n", "4", "--family", "A1"]


@pytest.mark.parametrize("argv", [
    ["verify", "no-such-witness-file.json"],
    SCAN + ["--range", "[1]"],
    SCAN + ["--range", '{"e": 5}'],
    SCAN + ["--range", '{"e": [1'],
    SCAN + ["--workers", "0"],
    ["scan", "--p", "6", "--n", "4", "--family", "A1"],
    ["scan", "--p", "2", "--m", "3", "--n", "4", "--family", "A9"],
    ["scan", "--p", "2", "--m", "3", "--family", "A1"],
    SCAN + ["--range", '{"e": [1]}', "--out", "no-such-dir/report.json"],
    ["scan", "--family", "Deg9", "--p", "3", "--range", '{"A3": [1]}'],
    ["scan", "--family", "A2", "--p", "2", "--m", "3", "--n", "4",
     "--range", '{"x": [1], "e": [1]}'],
    SCAN + ["--range", '{"e": [8]}'],
    ["field-info", "--p", "3", "--n", "0"],
], ids=["missing-file", "range-list", "range-int", "bad-json", "workers-0",
        "p-not-prime", "unknown-family", "a1-without-n",
        "out-not-writable", "deg9-unread-key", "a2-unread-key", "range-value",
        "field-info-n-0"])
def test_config_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("text", ['{"witnesses": 5}', "5"],
                         ids=["witnesses-an-int", "file-an-int"])
def test_witness_list_not_a_list_is_a_config_error(text, tmp_path, capsys):
    path = tmp_path / "witnesses.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_witness_csv_row_with_a_bad_field_is_a_mismatch(tmp_path, capsys):
    # a CSV row stands for a JSON record, and a record with p = 6 is a
    # ParseOrFieldMismatch of its own, not a config error for the whole run
    bad = tmp_path / "witnesses.csv"
    bad.write_text(",".join(cli._CSV_HEADER) + "\n6,1,2,0,1|1|1,7,1,A1,{},BruteForce,1\n")
    out = tmp_path / "verify.json"
    assert main(["verify", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["mismatches"] == [{"kind": "ParseOrFieldMismatch", "detail": "6 is not prime"}]
    assert report["counts"]["verifiedCpp"] == 0


def test_os_error_without_a_path_propagates(monkeypatch):
    def refuse(*args, **kwargs):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", refuse)
    with pytest.raises(BlockingIOError):
        main(SCAN + ["--workers", "2"])


@pytest.mark.parametrize("argv, loaded", [
    (["--family", "A2", "--p", "2", "--m", "5", "--n", "4",
      "--range", '{"a": [3]}'], True),
    (["--family", "Deg9", "--p", "3", "--m", "1"], False),
])
def test_workers_fork_after_numpy_only_for_brute_force(tmp_path, argv, loaded):
    # a tower needs tables in every worker (the brute force, or G_b over
    # GF(q)), so the parent imports numpy once before they fork; without one
    # it does not
    code = (
        "import sys\n"
        "from cppforge import cli\n"
        "seen = []\n"
        "class Pool:\n"
        "    def __init__(self, max_workers):\n"
        "        seen.append('numpy' in sys.modules)\n"
        "    def __enter__(self):\n"
        "        return self\n"
        "    def __exit__(self, *exc):\n"
        "        return False\n"
        "    map = staticmethod(map)\n"
        "cli.ProcessPoolExecutor = Pool\n"
        f"cli.main(['scan', *{argv!r}, '--workers', '2', '--out', "
        f"{str(tmp_path / 'r.json')!r}])\n"
        "print(seen)\n")
    out = _run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [f"[{loaded}]"]


def test_b_scan_with_e_zero_over_a_small_field_leaves_numpy_unloaded(tmp_path):
    # the discrete log that decides B with e = 0 reads the field's log list
    code = (
        "import sys\n"
        "from cppforge import cli\n"
        "cli.main(['scan', '--family', 'B', '--p', '11', '--range', '{\"r\": [1, 2]}', "
        f"'--out', {str(tmp_path / 'r.json')!r}])\n"
        "print('numpy' in sys.modules)\n")
    out = _run_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


FIELD_INFO = ["field-info", "--p", "3", "--m", "2"]
CONSTRUCT = ["construct", "--p", "2", "--m", "3", "--n", "4", "--family", "A1"]


@pytest.mark.parametrize("argv", [
    FIELD_INFO + ["--family", "A1"],
    FIELD_INFO + ["--range", "{}"],
    FIELD_INFO + ["--brute-bound", "5"],
    FIELD_INFO + ["--workers", "7"],
    FIELD_INFO + ["--out", "info.json"],
    FIELD_INFO + ["--format", "csv"],
    CONSTRUCT + ["--brute-bound", "5"],
    CONSTRUCT + ["--workers", "7"],
    CONSTRUCT + ["--out", "items.json"],
    CONSTRUCT + ["--format", "csv"],
    SCAN + ["--brute-bound", "5"],
    ["classify", "--family", "Deg9", "--p", "3", "--brute-bound", "5"],
    ["verify", "witnesses.json", "--brute-bound", "5"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_options_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _cli_report(tmp_path, *argv: str, code: int = 0) -> dict:
    out = tmp_path / f"{argv[0]}.json"
    assert main([*argv, "--out", str(out)]) == code
    return json.loads(out.read_text())


# the good shapes of the classification command before it joined the scan path
DEG9_GF3_GOOD = [
    {"case": "ii", "A6": 1, "A8": 2}, {"case": "ii", "A6": 2, "A8": 2},
    *({"case": "iii", "A3": a3, "A4": 1, "A5": a5} for a3 in (1, 2) for a5 in range(3)),
    {"case": "iv", "A2": 1, "A3": 0, "A5": 0}, {"case": "iv", "A2": 1, "A3": 1, "A5": 0},
    {"case": "iv", "A2": 1, "A3": 1, "A5": 1}, {"case": "iv", "A2": 1, "A3": 2, "A5": 0},
    {"case": "iv", "A2": 1, "A3": 2, "A5": 2},
]
DEG8_GF4_GOOD = [
    {"A4": a4, "A6": a6, "A7": a7} for a4, a6, a7 in (
        (0, 1, 1), (0, 1, 2), (0, 1, 3), (1, 0, 1), (1, 1, 2), (1, 1, 3),
        (1, 2, 1), (1, 3, 1), (2, 0, 2), (2, 1, 1), (2, 1, 3), (2, 2, 2),
        (2, 3, 2), (3, 0, 3), (3, 1, 1), (3, 1, 2), (3, 2, 3), (3, 3, 3))
]


class TestClassify:
    """classify runs the scan path: same report as scan, goodShapes on top."""

    def test_deg9_over_gf3(self, tmp_path):
        report = _cli_report(tmp_path, "classify", "--family", "Deg9", "--p", "3")
        assert report["counts"]["constructed"] == 54
        assert report["goodShapes"] == DEG9_GF3_GOOD
        assert report["skips"] == report["mismatches"] == []

    def test_deg8_over_gf4(self, tmp_path):
        report = _cli_report(tmp_path, "classify", "--family", "Deg8", "--p", "2",
                             "--m", "2")
        assert report["counts"]["constructed"] == 64
        assert report["goodShapes"] == DEG8_GF4_GOOD

    def test_family_skips_become_skip_records(self, tmp_path):
        report = _cli_report(tmp_path, "classify", "--family", "B", "--p", "5")
        assert report["counts"]["constructed"] == 25
        assert len(report["skips"]) == report["counts"]["skipped"] == 35
        assert all(set(skip) == {"params", "reason"} for skip in report["skips"])

    def test_n_is_honoured(self, tmp_path):
        report = _cli_report(tmp_path, "classify", "--family", "A1", "--p", "2",
                             "--n", "4")
        assert report["counts"]["verifiedCpp"] == len(report["witnesses"]) == 4
        assert report["goodShapes"] == [{"e": 1}]

    @pytest.mark.parametrize("argv", [
        ["--family", "A1", "--p", "2", "--n", "4"],
        ["--family", "B", "--p", "5"],
        ["--family", "Deg9", "--p", "3", "--range", '{"cases": ["iii"]}'],
    ], ids=["A1", "B", "Deg9-iii"])
    def test_same_report_as_scan(self, tmp_path, argv):
        classified = _cli_report(tmp_path, "classify", *argv)
        scanned = _cli_report(tmp_path, "scan", *argv)
        assert classified["config"].pop("command") == "classify"
        assert scanned["config"].pop("command") == "scan"
        del classified["timingSec"], scanned["timingSec"]
        assert classified == scanned


DEG9_GF9_CASE = dict(p=3, m=2, family="Deg9")
DEG9_GF9_ARGV = ["scan", "--family", "Deg9", "--p", "3", "--m", "2"]


def _params_key(params: dict) -> str:
    return json.dumps(params, sort_keys=True)


@pytest.fixture(scope="module")
def deg9_gf9_verdicts() -> dict:
    """Direct goodness (is_good, reason) of every Deg9 shape over GF(9), by params."""
    base = mk_field(3, 2)
    items = families.enumerate_family(base, families.family_params("Deg9", base, None))
    return {_params_key(item.params.params): (rep.is_good, rep.reason)
            for item in items for rep in [goodness(item.g)]}


def _counting_goodness(monkeypatch) -> list:
    calls = []
    real = cli.goodness

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(cli, "goodness", counted)
    return calls


class TestGoodnessOncePerClass:
    """A scan runs goodness once per goodness_class key and reuses the verdict."""

    @pytest.mark.parametrize("case", [DEG9_GF9_CASE, A2_CASE], ids=["Deg9", "A2"])
    def test_every_report_equals_direct_goodness(self, monkeypatch, case):
        reports = []
        real = cli.GoodnessReport

        def recording(*args):
            reports.append(real(*args))
            return reports[-1]

        calls = _counting_goodness(monkeypatch)
        monkeypatch.setattr(cli, "GoodnessReport", recording)
        report = run_scan(ScanConfig("scan", **case))
        assert report.mismatches == [] and report.internal_errors == []
        assert len(calls) + len(reports) == report.counts["constructed"]
        assert reports, "no item was answered from the cache"
        for rep in reports:
            direct = goodness(rep.g)
            assert (rep.is_good, rep.reason, rep.vg) == (direct.is_good, direct.reason,
                                                         direct.vg)
            assert rep.radical == direct.radical
        good = [rep.is_good for rep in reports] + [goodness(g).is_good for g in calls]
        assert len(report.good_shapes) == sum(good)

    def test_deg9_over_gf9_runs_goodness_117_times(self, monkeypatch):
        calls = _counting_goodness(monkeypatch)
        report = run_scan(ScanConfig("scan", **DEG9_GF9_CASE))
        assert report.counts["constructed"] == 1458
        assert len(calls) == 117


class TestExitCodes:
    def test_clean_deg9_scan_exits_0(self, tmp_path):
        report = _cli_report(tmp_path, *DEG9_GF9_ARGV)
        assert report["mismatches"] == [] and report["counts"]["constructed"] == 1458

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flipped_predictions_exit_1(self, monkeypatch, tmp_path, workers,
                                        deg9_gf9_verdicts):
        enumerate_family = cli.enumerate_family

        def flipped(*args, **kwargs):
            for item in enumerate_family(*args, **kwargs):
                yield replace(item, predicted_good=not item.predicted_good)

        monkeypatch.setattr(cli, "enumerate_family", flipped)
        report = _cli_report(tmp_path, *DEG9_GF9_ARGV, "--workers", str(workers), code=1)
        # 117 goodness runs: most records are answered from the cache
        assert len(report["mismatches"]) == 1458
        for rec in report["mismatches"]:
            assert rec["kind"] == "PredictionMismatch"
            assert rec["predicted"] != rec["oracle"]
            assert (rec["oracle"], rec["reason"]) == deg9_gf9_verdicts[
                _params_key(rec["params"])]


class TestModuleEntryPoint:
    """`python -m cppforge` runs `cli.main` and exits with its code."""

    def test_help_exits_0(self):
        proc = _run_module("--help")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: cppforge")

    def test_config_error_exits_2(self):
        proc = _run_module(*SCAN, "--workers", "0")
        assert proc.returncode == 2 and proc.stderr.startswith("config error:")
