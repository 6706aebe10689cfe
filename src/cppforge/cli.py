"""Command-line orchestration: field info, family scans, classification,
witness verification, machine-readable reports.

Subcommands:

* field-info   print the deterministic presentation of GF(p^m) / GF((p^m)^n)
* construct    build one family item from explicit parameters
* classify     exhaustive octic/nonic classification over a field
* scan         enumerate a family, cross-check predictions, verify witnesses
* verify       re-verify a witness file produced by scan

A scan builds every family item once, in the parent process, and checks
each through one function, _scan_item, whatever the worker count.  With
--workers k > 1 only the checking and brute force are split: each of the k
worker processes gets one contiguous chunk of the items.

Exit codes: 0 ok, 1 mismatches found, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dfield
from itertools import repeat
from typing import Optional

from .gf import (
    DEFAULT_BRUTE_BOUND,
    FieldError,
    HARD_BRUTE_CAP,
    mk_field,
    mk_tower,
)
from .poly import Poly
from .cpp_core import (
    VERIFIED_BRUTE,
    cpp_exponent,
    goodness,
    is_cpp_monomial,
    scalar_class_count,
    witness_from_json,
    witnesses_from_good,
)
from .families import FamilySkip, enumerate_family


@dataclass
class ScanConfig:
    command: str
    p: int = 2
    m: int = 1
    n: Optional[int] = None
    family: str = ""
    ranges: dict = dfield(default_factory=dict)
    brute_bound: int = DEFAULT_BRUTE_BOUND
    workers: int = 1
    out: Optional[str] = None
    fmt: str = "json"

    def validate(self) -> None:
        if self.brute_bound > HARD_BRUTE_CAP:
            raise ValueError(f"brute bound exceeds hard cap {HARD_BRUTE_CAP}")
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
    scalar_classes: int
    timing_sec: float

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "counts": self.counts,
            "witnesses": [w.to_json() for w in self.witnesses],
            "scalarClasses": self.scalar_classes,
            "mismatches": self.mismatches,
            "skips": self.skips,
            "timingSec": self.timing_sec,
        }

    @property
    def exit_code(self) -> int:
        return 1 if self.mismatches else 0


def _scan_item(item, tower, brute_bound: int) -> dict:
    """Check one enumerated item: its skip, or its verdicts and witnesses.

    A FamilyItem's prediction is cross-checked against goodness(); a good g
    of degree n + 1 yields its witnesses, brute-forced within the bound, and
    its predicted roots (when the family gives them) are compared with them.
    """
    if isinstance(item, FamilySkip):
        return {"skip": {"params": item.params.params, "reason": item.reason}}
    out = {"witnesses": [], "mismatches": [], "predicted": item.predicted_good,
           "verified_cpp": 0}
    rep = goodness(item.g)
    if rep.is_good != item.predicted_good:
        out["mismatches"].append({
            "kind": "PredictionMismatch",
            "params": item.params.params,
            "predicted": item.predicted_good,
            "oracle": rep.is_good,
            "reason": rep.reason,
        })
        return out
    # deg g = n + 1 is the correspondence's precondition; for a good g it
    # also makes the orbit size divide n, since v_g = c f^(n/s)
    if not rep.is_good or tower is None or item.g.degree != tower.n + 1:
        return out
    ws = witnesses_from_good(item.g, tower, brute_bound,
                             family=item.params.tag,
                             params=dict(item.params.params), report=rep)
    if item.predicted_roots and item.predicted_roots[0].ctx is tower:
        pred = sorted(e.val for e in item.predicted_roots)
        if pred != sorted(w.b for w in ws):
            out["mismatches"].append({
                "kind": "PredictedRootMismatch",
                "params": item.params.params,
            })
    for w in ws:
        if w.verified == VERIFIED_BRUTE and not w.passed:
            out["mismatches"].append({
                "kind": "WitnessBruteForceFailure",
                "params": item.params.params,
                "b": w.b,
            })
        elif w.verified == VERIFIED_BRUTE:
            out["verified_cpp"] += 1
    out["witnesses"] = ws
    return out


def run_scan(config: ScanConfig) -> ScanReport:
    """Enumerate a family, cross-check every prediction, verify witnesses.

    Items are built once, here in the parent; --workers splits only their
    checking and brute force, one contiguous chunk of items per worker.
    """
    config.validate()
    t0 = time.time()
    base = mk_field(config.p, config.m)
    n = config.n
    tower = None
    if n is not None:
        tower = mk_tower(base, n)
    items = list(enumerate_family(config.family, base, n, config.ranges))
    counts = {"constructed": 0, "predictedGood": 0, "verifiedCpp": 0,
              "refuted": 0, "skipped": 0}
    witnesses: list = []
    mismatches: list = []
    skips: list = []
    args = (_scan_item, items, repeat(tower), repeat(config.brute_bound))
    if config.workers == 1:
        results = list(map(*args))
    else:
        chunk = max(1, math.ceil(len(items) / config.workers))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(*args, chunksize=chunk))
    for res in results:
        if "skip" in res:
            counts["skipped"] += 1
            skips.append(res["skip"])
            continue
        counts["constructed"] += 1
        if res["predicted"]:
            counts["predictedGood"] += 1
        else:
            counts["refuted"] += 1
        counts["verifiedCpp"] += res["verified_cpp"]
        mismatches.extend(res["mismatches"])
        witnesses.extend(res["witnesses"])
    witnesses.sort(key=lambda w: (w.family, sorted(w.params.items()), w.b))
    # several items may yield the same b; count each CPM b once
    counts["distinctCpp"] = len({w.b for w in witnesses
                                 if w.verified == VERIFIED_BRUTE and w.passed})
    report = ScanReport(
        config={"command": "scan", "p": config.p, "m": config.m, "n": n,
                "family": config.family, "bruteBound": config.brute_bound,
                "workers": config.workers},
        counts=counts,
        witnesses=witnesses,
        mismatches=mismatches,
        skips=skips,
        scalar_classes=scalar_class_count(witnesses) if witnesses else 0,
        timing_sec=round(time.time() - t0, 3),
    )
    return report


def verify_witness_file(path: str,
                        brute_bound: int = DEFAULT_BRUTE_BOUND) -> ScanReport:
    """Re-verify each stored witness; out-of-bound towers get a criterion recheck."""
    t0 = time.time()
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    if not text:
        records = []
    elif path.endswith(".csv"):
        records = _witnesses_from_csv(text)
    else:
        obj = json.loads(text)
        records = obj["witnesses"] if isinstance(obj, dict) else obj
    mismatches = []
    witnesses = []
    count_ok = 0
    for rec in records:
        try:
            w = witness_from_json(rec)
        except (FieldError, KeyError, ValueError) as err:
            mismatches.append({"kind": "ParseOrFieldMismatch", "detail": str(err)})
            continue
        witnesses.append(w)
        d = cpp_exponent(w.tower)
        if d != w.d:
            mismatches.append({"kind": "ExponentMismatch", "b": w.b,
                               "stored": w.d, "actual": d})
            continue
        if math.gcd(d, w.tower.order - 1) != 1:
            mismatches.append({"kind": "GcdViolation", "b": w.b})
            continue
        if w.tower.order <= brute_bound:
            if not is_cpp_monomial(w.b, w.tower, brute_bound):
                mismatches.append({"kind": "WitnessBruteForceFailure", "b": w.b})
            else:
                count_ok += 1
        else:
            # criterion recheck: b must be a root of some good minimal polynomial
            from .poly import char_poly_of
            from .gf import FqElem
            A = char_poly_of(FqElem(w.tower, w.b), w.tower)
            coeffs = []
            sign = 1
            for i in range(w.tower.n + 1):
                a = A[w.tower.n - i].val
                coeffs.append(a if sign == 1 else w.tower.base.neg(a))
                sign = -sign
            gb = Poly(w.tower.base, [0] + coeffs[::-1])
            rep = goodness(gb) if gb.degree >= 2 else None
            if rep is None or not rep.is_good:
                mismatches.append({"kind": "CriterionRecheckFailure", "b": w.b})
            else:
                count_ok += 1
    report = ScanReport(
        config={"command": "verify", "path": path, "bruteBound": brute_bound},
        counts={"constructed": len(witnesses), "predictedGood": 0,
                "verifiedCpp": count_ok, "refuted": 0, "skipped": 0},
        witnesses=witnesses,
        mismatches=mismatches,
        skips=[],
        scalar_classes=scalar_class_count(witnesses) if witnesses else 0,
        timing_sec=round(time.time() - t0, 3),
    )
    return report


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


def _witnesses_from_csv(text: str) -> list:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    header, rows = rows[0], rows[1:]
    out = []
    for row in rows:
        rec = dict(zip(header, row))
        p, m, n = int(rec["p"]), int(rec["m"]), int(rec["n"])
        base = mk_field(p, m)
        tower = mk_tower(base, n)
        b = int(rec["b_base_p"])
        out.append({
            "p": p, "m": m, "n": n,
            "modulus": list(base.modulus),
            "extModulus": [list(base.decode(c)) for c in tower.ext_modulus],
            "d": int(rec["d"]),
            "b": [list(base.decode(c)) for c in tower.decode(b)],
            "family": rec["family"],
            "params": json.loads(rec["params"]) if rec["params"] else {},
            "verified": rec["verified"],
            "passed": None if rec["passed"] == "" else bool(int(rec["passed"])),
        })
    return out


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
# classification command


def run_classify(config: ScanConfig) -> ScanReport:
    """Exhaustive shape classification with goodness cross-check."""
    t0 = time.time()
    base = mk_field(config.p, config.m)
    counts = {"constructed": 0, "predictedGood": 0, "verifiedCpp": 0,
              "refuted": 0, "skipped": 0}
    mismatches = []
    good_params = []
    for item in enumerate_family(config.family, base, None, config.ranges):
        counts["constructed"] += 1
        if item.predicted_good:
            counts["predictedGood"] += 1
            rep = goodness(item.g)
            if not rep.is_good:
                mismatches.append({"kind": "PredictionMismatch",
                                   "params": item.params.params})
            else:
                good_params.append(item.params.params)
        else:
            counts["refuted"] += 1
    report = ScanReport(
        config={"command": "classify", "p": config.p, "m": config.m,
                "family": config.family},
        counts=counts,
        witnesses=[],
        mismatches=mismatches,
        skips=[{"goodShapes": good_params}],
        scalar_classes=0,
        timing_sec=round(time.time() - t0, 3),
    )
    return report


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cppforge",
                                 description="complete permutation monomial scanner")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=2)
        sp.add_argument("--m", type=int, default=1)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--family", type=str, default="")
        sp.add_argument("--range", type=str, default="{}",
                        help="JSON dict of parameter ranges, e.g. '{\"e\": [1, 2]}'")
        sp.add_argument("--brute-bound", type=int, default=DEFAULT_BRUTE_BOUND)
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--format", type=str, choices=("json", "csv"),
                        default="json")

    for name in ("field-info", "construct", "classify", "scan"):
        common(sub.add_parser(name))
    vp = sub.add_parser("verify")
    vp.add_argument("path")
    vp.add_argument("--brute-bound", type=int, default=DEFAULT_BRUTE_BOUND)
    vp.add_argument("--out", type=str, default=None)
    vp.add_argument("--format", type=str, choices=("json", "csv"), default="json")
    return ap


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            report = verify_witness_file(args.path, args.brute_bound)
            _write_report(report, args.out, args.format)
            return report.exit_code
        config = ScanConfig(
            command=args.command, p=args.p, m=args.m, n=args.n,
            family=args.family, ranges=json.loads(args.range),
            brute_bound=args.brute_bound, workers=args.workers,
            out=args.out, fmt=args.format,
        )
        config.validate()
    except (OSError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        if args.command == "field-info":
            base = mk_field(config.p, config.m)
            desc = base.describe()
            if config.n:
                desc = mk_tower(base, config.n).describe()
            print(json.dumps(desc, indent=2, sort_keys=True))
            return 0
        if args.command == "construct":
            base = mk_field(config.p, config.m)
            items = list(enumerate_family(config.family, base, config.n,
                                          config.ranges))
            out = []
            for item in items:
                if isinstance(item, FamilySkip):
                    out.append({"skip": item.reason, "params": item.params.params})
                else:
                    out.append({"params": item.params.params,
                                "g": item.g.to_json(),
                                "predictedGood": item.predicted_good})
            print(json.dumps(out, indent=2, sort_keys=True))
            return 0
        if args.command == "classify":
            report = run_classify(config)
            _write_report(report, config.out, config.fmt)
            return report.exit_code
        if args.command == "scan":
            report = run_scan(config)
            _write_report(report, config.out, config.fmt)
            return report.exit_code
    except (FieldError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
