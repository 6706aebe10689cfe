"""Scan orchestration: which items reach witness extraction."""

import json
from dataclasses import replace

import pytest

from cppforge import cli
from cppforge.cli import ScanConfig, main, run_scan
from cppforge.gf import HARD_BRUTE_CAP, FqElem


class TestScanDegreeGuard:
    def test_d_lin2_skips_items_of_wrong_degree(self):
        # GF(16^3): the r = 1 item has degree 2 != n + 1 and yields no witness;
        # the r = 2 item has degree 4 and yields three brute-forced witnesses
        report = run_scan(ScanConfig("scan", p=2, m=4, n=3, family="D_lin2"))
        assert report.mismatches == []
        assert [w.params for w in report.witnesses] == [{"r": 2}] * 3
        assert all(w.verified == "BruteForce" and w.passed
                   for w in report.witnesses)

    def test_d_lin2_scan_exits_0(self):
        assert main(["scan", "--p", "2", "--m", "4", "--family", "D_lin2",
                     "--n", "3"]) == 0


# GF((2^3)^4): A1 with e = 0 is one ZeroShift skip; its three items give 12
# witnesses.  A2 gives 56 items and 210 brute-forced witnesses.
A1_CASE = dict(p=2, m=3, n=4, family="A1", ranges={"e": [0, 1, 2, 3]})
A2_CASE = dict(p=2, m=3, n=4, family="A2")


def _report_json(report) -> dict:
    out = report.to_json()
    del out["timingSec"]
    del out["config"]["workers"]
    return out


class TestSerialParallelAgreement:
    @pytest.mark.parametrize("case, skipped, items, verified",
                             [(A1_CASE, 1, 3, 12), (A2_CASE, 0, 56, 210)],
                             ids=["A1", "A2"])
    def test_one_and_two_workers_agree(self, case, skipped, items, verified):
        serial = run_scan(ScanConfig("scan", workers=1, **case))
        parallel = run_scan(ScanConfig("scan", workers=2, **case))
        assert _report_json(serial) == _report_json(parallel)
        assert serial.mismatches == []
        assert serial.counts["skipped"] == skipped
        assert serial.counts["constructed"] == items
        assert len(serial.witnesses) == serial.counts["verifiedCpp"] == verified


class TestPredictedRootMismatch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_shifted_root_is_reported(self, monkeypatch, workers):
        enumerate_family = cli.enumerate_family

        def shifted(*args, **kwargs):
            for item in enumerate_family(*args, **kwargs):
                if getattr(item, "predicted_roots", None):
                    r0, *rest = item.predicted_roots
                    moved = FqElem(r0.ctx, (r0.val + 1) % r0.ctx.order)
                    item = replace(item, predicted_roots=(moved, *rest))
                yield item

        monkeypatch.setattr(cli, "enumerate_family", shifted)
        report = run_scan(ScanConfig("scan", workers=workers, **A2_CASE))
        kinds = [m["kind"] for m in report.mismatches]
        assert kinds == ["PredictedRootMismatch"] * 56


class TestFamilyBRootMismatch:
    def test_wrong_predicted_roots_are_reported_not_raised(self):
        # B over GF(5) with r = 2 and e != 0: the verdict is right but the
        # predicted roots are not the roots of v_g
        report = run_scan(ScanConfig("scan", p=5, m=1, n=4, family="B",
                                     ranges={"r": [2], "a": [2], "e": [1]}))
        assert [m["kind"] for m in report.mismatches] == ["PredictedRootMismatch"]


class TestWitnessFileRoundTrip:
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
    SCAN + ["--brute-bound", str(HARD_BRUTE_CAP + 1)],
    ["scan", "--p", "2", "--m", "3", "--n", "4", "--family", "A9"],
], ids=["missing-file", "range-list", "range-int", "bad-json", "workers-0",
        "p-not-prime", "brute-bound", "unknown-family"])
def test_config_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
