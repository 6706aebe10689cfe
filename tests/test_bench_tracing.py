"""The benchmark's tracer (`bench/tracing.py`) against the package.

Its --trace 1 runs look up names in every cppforge layer; a name that is
pruned from the package makes `install` fail here before it fails there.
"""

import importlib
import sys
from pathlib import Path

from cppforge import cli, cpp_core, families, gf, poly
from cppforge.gf import Context, Tower
from cppforge.poly import Poly

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = (gf, poly, cpp_core, families, cli)
CLASSES = (Context, Tower, Poly)


def test_install_traces_a_scan_and_uninstall_restores(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    before = [dict(vars(owner)) for owner in MODULES + CLASSES]
    tracer = tracing.Tracer()
    try:
        uninstall = tracing.install(tracer)
        try:
            assert cli.main(["scan", "--family", "A1", "--p", "2", "--n", "4",
                             "--out", str(tmp_path / "scan.json")]) == 0
        finally:
            uninstall()
    finally:
        sys.modules.pop("tracing", None)
    names = {span[0] for span in tracer.spans}
    assert {"cli.run_scan", "cli.report", "cpp_core.goodness",
            "cpp_core.witnesses_from_good", "families.enumerate"} <= names
    for owner, old in zip(MODULES + CLASSES, before):
        assert all(vars(owner)[name] is value for name, value in old.items()), owner


def test_deg9_scan_reaches_the_traced_root_and_classifier_calls(monkeypatch, tmp_path):
    # bench/checks.py TracedSelfTimes.test_deg9_scan asserts these counts on
    # the same scan; a rewrite that routes around them fails here first
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        uninstall = tracing.install(tracer)
        try:
            assert cli.main(["scan", "--family", "Deg9", "--p", "3", "--m", "1",
                             "--out", str(tmp_path / "scan.json")]) == 0
        finally:
            uninstall()
        metrics, _ = tracing.layer_metrics(dict(tracer.result(1.0), untraced_wall_s=1.0))
    finally:
        sys.modules.pop("tracing", None)
    # one classify_deg9 per shape, one roots_in per case-iii shape (3·2·3)
    assert metrics["families.classify_deg9.calls"][0] == 54
    assert metrics["poly.roots_in.calls"][0] == 18


def test_char2_scan_reaches_the_traced_artin_schreier_and_brute_force(monkeypatch, tmp_path):
    # bench/checks.py TracedSelfTimes.test_char2_scan asserts these counts on
    # the same scan; a rewrite that routes around them fails here first
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        uninstall = tracing.install(tracer)
        try:
            assert cli.main(["scan", "--family", "A2", "--p", "2", "--m", "3", "--n", "4",
                             "--out", str(tmp_path / "scan.json")]) == 0
        finally:
            uninstall()
        metrics, _ = tracing.layer_metrics(dict(tracer.result(1.0), untraced_wall_s=1.0))
    finally:
        sys.modules.pop("tracing", None)
    assert metrics["gf.artin_schreier_root.calls"][0] > 0
    assert metrics["cpp_core.is_cpp_monomial.elements"][0] > 0


def test_brute_force_elements_are_the_orders_of_its_fields(monkeypatch, tmp_path):
    # the tracer counts len() of what each cpp_core._eval_all_sparse call
    # returns as its elements: that must be the order of the field it covers
    monkeypatch.syspath_prepend(str(BENCH))
    real, orders = cpp_core._eval_all_sparse, []

    def spy(ctx, terms, bound):
        orders.append(ctx.order)
        return real(ctx, terms, bound)

    monkeypatch.setattr(cpp_core, "_eval_all_sparse", spy)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        uninstall = tracing.install(tracer)
        try:
            assert cli.main(["scan", "--family", "A2", "--p", "2", "--m", "3", "--n", "4",
                             "--out", str(tmp_path / "scan.json")]) == 0
        finally:
            uninstall()
        metrics, _ = tracing.layer_metrics(dict(tracer.result(1.0), untraced_wall_s=1.0))
    finally:
        sys.modules.pop("tracing", None)
    assert 8 ** 4 in orders
    assert metrics["cpp_core.is_cpp_monomial.elements"][0] == sum(orders)


def test_char2_scan_tables_hold_4_bytes_per_entry(monkeypatch, tmp_path):
    # gf.ensure_tables.bytes counts exp and log of every interned context;
    # empty caches leave the scan's tower GF(8^4), for its brute force, and
    # GF(8), for the G_b criterion; all four tables are int32
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    monkeypatch.setattr(gf, "_TOWER_CACHE", {})
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        uninstall = tracing.install(tracer)
        try:
            assert cli.main(["scan", "--family", "A2", "--p", "2", "--m", "3", "--n", "4",
                             "--out", str(tmp_path / "scan.json")]) == 0
        finally:
            uninstall()
        metrics, _ = tracing.layer_metrics(dict(tracer.result(1.0), untraced_wall_s=1.0))
    finally:
        sys.modules.pop("tracing", None)
    assert metrics["gf.ensure_tables.bytes"][0] == sum(
        4 * (order - 1) + 4 * order for order in (8 ** 4, 8))
