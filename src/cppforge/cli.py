"""Command-line orchestration: field info, family scans, classification,
witness verification, machine-readable reports.

Subcommands:

* field-info   print the deterministic presentation of GF(p^m) / GF((p^m)^n)
* construct    build one family item from explicit parameters
* classify     exhaustive octic/nonic classification over a field
* scan         enumerate a family, cross-check predictions, verify witnesses
* verify       decide the witnesses of a file produced by scan again

classify is scan under another name: both go through run_scan, and their
reports differ only in config.command and timingSec.  Every such report
lists the params of the good items (predicted good and confirmed by the
goodness oracle) in goodShapes, in enumeration order.  Each subcommand
accepts only the options it reads.

One rule gives every witness its verdict, in scan and in verify: the gate
(cpp_core.gate), that gcd(d, q^n - 1) = 1 and G_b = g/lc(g) permutes
GF(q), evaluated over GF(q) alone.  scan applies it to g, one verdict for a
whole goodness class; verify rebuilds G_b from each stored b
(cpp_core.criterion_verdict).  A failed witness is a
WitnessCriterionFailure, and the passed ones count in verifiedCpp.  The
brute force (cpp_core.is_cpp_monomial) decides nothing; it cross-checks
the gate wherever the tower fits gf.DEFAULT_BRUTE_BOUND (2^24, a constant,
not an option), under two policies: scan brute-forces the first witness of
each class in a chunk, verify every witness.  A disagreement is a
CrossCheckDisagreement.  counts.witnessClasses and counts.crossCheckedClasses
of a scan are the distinct class keys with witnesses and with a completed
brute force, counts.crossChecked of a verify the witnesses with one.

A scan builds each family item in the process that checks it, right before
its check, through one function, _scan_chunk, whatever the worker count.
The parent computes only the family's parameter list (family_params) and
splits it into one contiguous chunk per worker, one chunk for --workers 1;
each process draws its chunk's items from enumerate_family one at a time and
checks each with _scan_item before building the next.  Building an item
decides its family's verdict over GF(q); the scan owns the tower, and the
roots that A1, A2 and B predict are expressed in it only for an item whose
witnesses are there to compare them with.  The first item with witnesses in
a process builds the tower's exp/log tables there, in either characteristic
wherever the tower fits gf.DEFAULT_BRUTE_BOUND, before it locates its root,
so root location and the root comparisons use tabled tower multiplication
from the first witness on.  With --workers k > 1 the parent builds no item
and no table, but imports numpy (which only tables need, and every witness
verdict needs tables of GF(q) at least) when a tower is given, so the forked
workers share that import.  Results are merged in enumeration order.  An
exception other than FieldError while building or checking one item becomes
an internalErrors record and the scan goes on.  goodness runs once per
equivalence class in each chunk (cpp_core.goodness_class: g up to c·g(c'x)
and the coefficient Frobenius); the other items of the class reuse its
verdict.

Exit codes: 0 ok, 1 mismatches found, 2 configuration error, 3 internal
error in at least one item (which takes precedence over 1).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dfield, replace
from itertools import chain, repeat
from typing import Optional

from . import cpp_core, gf
from .gf import FieldError, FieldTooLarge, mk_field, mk_tower
from .cpp_core import (
    CppWitness,
    GoodnessReport,
    cpp_exponent,
    criterion_verdict,
    goodness,
    goodness_class,
    scalar_class_count,
    v_poly,
    witness_from_json,
    witnesses_from_good,
)
from .families import FamilySkip, enumerate_family, family_params, predicted_roots


@dataclass
class ScanConfig:
    command: str
    p: int = 2
    m: int = 1
    n: Optional[int] = None
    family: str = ""
    ranges: dict = dfield(default_factory=dict)
    workers: int = 1

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not isinstance(self.ranges, dict) or not all(
                isinstance(v, list) for v in self.ranges.values()):
            raise ValueError("--range must be a JSON object whose values are lists")


@dataclass
class ScanReport:
    config: dict
    counts: dict
    witnesses: list
    mismatches: list
    skips: list
    good_shapes: list
    scalar_classes: int
    timing_sec: float
    internal_errors: list = dfield(default_factory=list)

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "counts": self.counts,
            "witnesses": [w.to_json() for w in self.witnesses],
            "scalarClasses": self.scalar_classes,
            "mismatches": self.mismatches,
            "skips": self.skips,
            "goodShapes": self.good_shapes,
            "internalErrors": self.internal_errors,
            "timingSec": self.timing_sec,
        }

    @property
    def exit_code(self) -> int:
        return 3 if self.internal_errors else 1 if self.mismatches else 0


def _verdict_failures(witnesses: list) -> list:
    """One mismatch record per witness whose CPM verdict failed."""
    return [{"kind": "WitnessCriterionFailure", "params": w.params, "b": w.b}
            for w in witnesses if w.passed is False]


def _cross_check(w: CppWitness) -> Optional[list]:
    """Brute-force w's verdict: None where its tower is past
    gf.DEFAULT_BRUTE_BOUND (read at each call) or the brute force raises
    FieldTooLarge, else the CrossCheckDisagreement records, none or one, of
    w against cpp_core.is_cpp_monomial."""
    if w.tower.order > gf.DEFAULT_BRUTE_BOUND:
        return None
    try:
        brute = cpp_core.is_cpp_monomial(w.b, w.tower)
    except FieldTooLarge:
        return None
    if brute == w.passed:
        return []
    return [{"kind": "CrossCheckDisagreement", "params": w.params, "b": w.b,
             "criterion": w.passed, "bruteForce": brute}]


def _cpp_counts(witnesses: list) -> dict:
    """verifiedCpp, the witnesses whose verdict passed under either rule, and
    distinctCpp, their distinct b (several items may yield the same b)."""
    passed = [(w.tower, w.b) for w in witnesses if w.passed]
    return {"verifiedCpp": len(passed), "distinctCpp": len(set(passed))}


def _scan_item(item, tower, verdicts: dict, checked: set) -> dict:
    """Check one enumerated item: its skip, or its verdicts and witnesses.

    A FamilyItem's prediction is cross-checked against goodness(); a good g
    of degree n + 1 yields its witnesses, labelled by the gate on g
    (witnesses_from_good, so cpp_core.gate).
    Only then are the roots its family predicts (families.predicted_roots,
    for A1, A2 and B) expressed in the scan's tower and compared with them.
    verdicts maps goodness_class keys to (is_good, reason): goodness() runs
    only for a key not in it, and an item whose class is there gets a report
    with that verdict and its own g and v_g (its radical is computed on
    demand, for its witnesses).

    checked holds the class keys whose gate verdict a brute force has
    checked in this chunk.  The first item with witnesses of any other
    class cross-checks its first witness (_cross_check), as the last step,
    so that the key is added only when the item returns; where the tower is
    past the brute bound, the class stays unchecked.  The result of an item
    with witnesses carries its class key ("class"), and "crossChecked" when
    it ran the brute force.
    """
    if isinstance(item, FamilySkip):
        return {"skip": {"params": item.params.params, "reason": item.reason}}
    key = goodness_class(item.g)
    out = {"params": item.params.params, "witnesses": [], "mismatches": [],
           "predicted": item.predicted_good, "good": False}
    hit = verdicts.get(key)
    if hit:
        rep = GoodnessReport(item.g, v_poly(item.g), *hit)
    else:
        rep = goodness(item.g)
        verdicts[key] = (rep.is_good, rep.reason)
    if rep.is_good != item.predicted_good:
        out["mismatches"].append({
            "kind": "PredictionMismatch", "params": item.params.params,
            "predicted": item.predicted_good, "oracle": rep.is_good,
            "reason": rep.reason})
        return out
    out["good"] = rep.is_good
    # deg g = n + 1 is the correspondence's precondition; for a good g it
    # also makes the orbit size divide n, since v_g = c f^(n/s)
    if not rep.is_good or tower is None or item.g.degree != tower.n + 1:
        return out
    # the cross-check below builds the exp/log tables where the tower fits;
    # built first, they carry the tower multiplications of one_root
    try:
        tower.ensure_tables(gf.DEFAULT_BRUTE_BOUND)
    except FieldTooLarge:
        pass
    ws = witnesses_from_good(item.g, tower, family=item.params.tag,
                             params=dict(item.params.params), report=rep)
    pred = predicted_roots(item.params, tower)
    if pred is not None and pred != sorted(w.b for w in ws):
        out["mismatches"].append({"kind": "PredictedRootMismatch",
                                  "params": item.params.params})
    out["mismatches"].extend(_verdict_failures(ws))
    out["witnesses"], out["class"] = ws, key
    disagreements = None if key in checked else _cross_check(ws[0])
    if disagreements is not None:
        out["mismatches"].extend(disagreements)
        checked.add(key)
        out["crossChecked"] = True
    return out


# traceback lines kept in an internalErrors record: the innermost frames
_TRACEBACK_LINES = 6


def _scan_chunk(params: list, base, tower) -> list:
    """Build and check the items of params, each right before its check.

    Returns one result per FamilyParams, in order.  One goodness verdict per
    goodness_class key is kept for the whole chunk, so goodness() runs once
    per equivalence class in it, and so is the set of keys cross-checked by
    a brute force, so the chunk brute-forces one witness orbit per class
    (_scan_item).  An exception other than FieldError while
    building or checking an item becomes that item's {"error": ...} record,
    and the chunk goes on with a fresh stream of the items after it.
    """
    results: list = []
    verdicts: dict = {}
    checked: set = set()
    while len(results) < len(params):
        try:
            for item in enumerate_family(base, params[len(results):]):
                results.append(_scan_item(item, tower, verdicts, checked))
        except FieldError:
            raise
        except Exception as err:  # one failing item must not end the scan
            tb = "".join(traceback.format_tb(err.__traceback__)).splitlines()
            results.append({"error": {
                "kind": "InternalError",
                "params": params[len(results)].params,
                "exception": type(err).__name__,
                "message": str(err),
                "traceback": tb[-_TRACEBACK_LINES:],
            }})
    return results


def run_scan(config: ScanConfig) -> ScanReport:
    """Enumerate a family, cross-check every prediction, verify witnesses.

    The parent computes the parameter list only; each process, the parent
    itself for --workers 1, builds and checks one contiguous chunk of it
    (_scan_chunk), and the results are merged in enumeration order.  The
    class counts merge the distinct keys of all chunks, so they do not
    depend on the worker count.
    """
    config.validate()
    t0 = time.time()
    base = mk_field(config.p, config.m)
    n = config.n
    tower = mk_tower(base, n) if n is not None else None
    params = family_params(config.family, base, n, config.ranges)
    counts = {"constructed": 0, "predictedGood": 0, "refuted": 0, "skipped": 0}
    witnesses, mismatches, skips, good_shapes, internal_errors = [], [], [], [], []
    witness_classes, checked_classes = set(), set()
    size = max(1, math.ceil(len(params) / config.workers))
    chunks = [params[i:i + size] for i in range(0, len(params), size)]
    args = (_scan_chunk, chunks, repeat(base), repeat(tower))
    if config.workers == 1:
        parts = list(map(*args))
    else:
        if tower is not None:
            import numpy  # noqa: F401  once, before the workers fork
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(*args))
    for res in chain.from_iterable(parts):
        if "error" in res:
            internal_errors.append(res["error"])
            continue
        if "skip" in res:
            counts["skipped"] += 1
            skips.append(res["skip"])
            continue
        counts["constructed"] += 1
        if res["good"]:
            good_shapes.append(res["params"])
        if res["predicted"]:
            counts["predictedGood"] += 1
        else:
            counts["refuted"] += 1
        mismatches.extend(res["mismatches"])
        witnesses.extend(res["witnesses"])
        if "class" in res:
            witness_classes.add(res["class"])
        if res.get("crossChecked"):
            checked_classes.add(res["class"])
    witnesses.sort(key=lambda w: (w.family, sorted(w.params.items()), w.b))
    counts.update(_cpp_counts(witnesses), witnessClasses=len(witness_classes),
                  crossCheckedClasses=len(checked_classes))
    return ScanReport(
        config={"command": config.command, "p": config.p, "m": config.m, "n": n,
                "family": config.family, "workers": config.workers},
        counts=counts,
        witnesses=witnesses,
        mismatches=mismatches,
        skips=skips,
        good_shapes=good_shapes,
        scalar_classes=scalar_class_count(witnesses),
        timing_sec=round(time.time() - t0, 3),
        internal_errors=internal_errors,
    )


def verify_witness_file(path: str) -> ScanReport:
    """Decide each stored witness again by criterion_verdict, and cross-check
    every one whose tower fits the brute force (_cross_check); counts the
    cross-checks that ran in counts.crossChecked.

    Every witness that parses is listed, counted and reported with the rule
    and verdict computed here, not those stored.  An unparsable record is a
    ParseOrFieldMismatch, a stored d other than the tower's an
    ExponentMismatch.  Raises ValueError when the witnesses are not a list.
    """
    t0 = time.time()
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    parse = witness_from_json
    if not text:
        records = []
    elif path.endswith(".csv"):
        records, parse = _csv_records(text), _witness_from_csv_record
    else:
        obj = json.loads(text)
        records = obj.get("witnesses") if isinstance(obj, dict) else obj
        if not isinstance(records, list):
            raise ValueError(f"{path}: the witnesses are not a JSON list")
    mismatches, witnesses, cross_checked = [], [], 0
    for rec in records:
        try:
            w = parse(rec)
        except (FieldError, KeyError, ValueError) as err:
            mismatches.append({"kind": "ParseOrFieldMismatch", "detail": str(err)})
            continue
        d = cpp_exponent(w.tower)
        if d != w.d:
            mismatches.append({"kind": "ExponentMismatch", "b": w.b,
                               "stored": w.d, "actual": d})
        verified, passed = criterion_verdict(w.b, w.tower)
        w = replace(w, verified=verified, passed=passed)
        witnesses.append(w)
        checks = _cross_check(w)
        cross_checked += checks is not None
        mismatches += _verdict_failures([w]) + (checks or [])
    return ScanReport(
        config={"command": "verify", "path": path},
        counts={"constructed": len(witnesses), "predictedGood": 0,
                "refuted": 0, "skipped": 0, **_cpp_counts(witnesses),
                "crossChecked": cross_checked},
        witnesses=witnesses,
        mismatches=mismatches,
        skips=[],
        good_shapes=[],
        scalar_classes=scalar_class_count(witnesses),
        timing_sec=round(time.time() - t0, 3),
    )


# ---------------------------------------------------------------------------
# serialization helpers


_CSV_HEADER = ["p", "m", "n", "modulus_base_p", "ext_modulus_base_p", "d",
               "b_base_p", "family", "params", "verified", "passed"]


def _witnesses_to_csv(witnesses: list) -> str:
    buf = io.StringIO()
    buf.write("# element columns use the base-p integer encoding of the "
              "coefficient vector, constant term first\n")
    writer = csv.writer(buf)
    writer.writerow(_CSV_HEADER)
    for w in witnesses:
        t = w.tower
        writer.writerow([
            t.p, t.base.m, t.n,
            t.base.encode(t.base.modulus[:t.base.m]),
            "|".join(str(c) for c in t.ext_modulus),
            w.d, w.b, w.family, json.dumps(w.params, sort_keys=True),
            w.verified, "" if w.passed is None else int(w.passed),
        ])
    return buf.getvalue()


def _csv_records(text: str) -> list:
    """The rows of a witness CSV as dicts keyed by its header; comments skipped."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def _witness_from_csv_record(rec: dict) -> CppWitness:
    """One CSV row as a witness, through the JSON record it stands for.

    A row that cannot be read or built raises KeyError, ValueError or
    FieldError, so it is reported on its own, as a JSON record is.
    """
    p, m, n = int(rec["p"]), int(rec["m"]), int(rec["n"])
    base = mk_field(p, m)
    tower = mk_tower(base, n)
    b = int(rec["b_base_p"])
    coords = ([list(base.decode(c)) for c in tower.decode(b)] if 0 <= b < tower.order
              else f"b_base_p {b} outside [0, {tower.order})")
    return witness_from_json({
        "p": p, "m": m, "n": n,
        "modulus": list(base.modulus),
        "extModulus": [list(base.decode(c)) for c in tower.ext_modulus],
        "d": int(rec["d"]),
        "b": coords,
        "family": rec["family"],
        "params": json.loads(rec["params"]) if rec["params"] else {},
        "verified": rec["verified"],
        "passed": None if rec["passed"] == "" else bool(int(rec["passed"])),
    })


def _write_report(report: ScanReport, out: Optional[str], fmt: str) -> None:
    if fmt == "csv":
        text = _witnesses_to_csv(report.witnesses)
    else:
        text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cppforge",
                                 description="complete permutation monomial scanner")
    sub = ap.add_subparsers(dest="command", required=True)

    def field_opts(sp):
        sp.add_argument("--p", type=int, default=2)
        sp.add_argument("--m", type=int, default=1)
        sp.add_argument("--n", type=int, default=None)
        return sp

    def family_opts(sp):
        sp.add_argument("--family", type=str, default="")
        sp.add_argument("--range", type=str, default="{}",
                        help="JSON dict of parameter ranges, e.g. '{\"e\": [1, 2]}'")
        return sp

    def report_opts(sp):
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--format", type=str, choices=("json", "csv"),
                        default="json")
        return sp

    field_opts(sub.add_parser("field-info"))
    family_opts(field_opts(sub.add_parser("construct")))
    for name in ("classify", "scan"):
        sp = report_opts(family_opts(field_opts(sub.add_parser(name))))
        sp.add_argument("--workers", type=int, default=1)
    vp = sub.add_parser("verify")
    vp.add_argument("path")
    report_opts(vp)
    return ap


def main(argv: Optional[list] = None) -> int:
    """Run one subcommand and return its exit code.

    Exit 2 with "config error:" when the arguments cannot be carried out: a
    bad value (ValueError, FieldError) or a path named on the command line
    that cannot be read or written (an OSError with a filename: the witness
    file of verify, or --out).  Any other OSError, such as the OS refusing to
    start the worker pool, is not a configuration error and propagates.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (OSError, ValueError, FieldError) as err:
        if isinstance(err, OSError) and err.filename is None:
            raise
        print(f"config error: {err}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.command == "verify":
        report = verify_witness_file(args.path)
        _write_report(report, args.out, args.format)
        return report.exit_code
    if args.command == "field-info":
        base = mk_field(args.p, args.m)
        desc = (mk_tower(base, args.n) if args.n is not None else base).describe()
        print(json.dumps(desc, indent=2, sort_keys=True))
        return 0
    ranges = json.loads(args.range)
    if args.command == "construct":
        config = ScanConfig(args.command, args.p, args.m, args.n, args.family,
                            ranges)
        config.validate()
        base = mk_field(config.p, config.m)
        out = []
        for item in enumerate_family(base, family_params(config.family, base,
                                                         config.n, config.ranges)):
            if isinstance(item, FamilySkip):
                out.append({"skip": item.reason, "params": item.params.params})
            else:
                out.append({"params": item.params.params,
                            "g": item.g.to_json(),
                            "predictedGood": item.predicted_good})
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    config = ScanConfig(args.command, args.p, args.m, args.n, args.family,
                        ranges, args.workers)
    report = run_scan(config)
    _write_report(report, args.out, args.format)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
