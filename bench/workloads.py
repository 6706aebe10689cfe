"""Workloads of the cppforge benchmark: inputs from a seed, and output checks.

A seed only chooses an equal-sized parameter subset; the program receives just
the resulting `--range`.  Every workload is checked on every run: each
expected item must be accounted for in the report, and each item's verdict
goes into a digest that must not depend on timing.

Workloads, and why each was chosen:

* a2-char2-scan  A2 over GF(2^5) with n = 4, tower GF(2^20), two workers.
  Brute force in characteristic 2 (the xor path), table building, table-less
  tower arithmetic during construction (Artin-Schreier roots), and the only
  parallel run.  The seed picks the Dickson parameter a; every a in GF(32) is
  a square, so all a give the same family up to scaling and the same work.
* c-goodness-scan  C over GF(9): degree-351 polynomials that are never good.
  Almost all time is `goodness` -> `factorize` on large polynomials; no
  towers, tables or brute force.  The seed picks a complementary pair of a
  values and one nonzero e value, two items; see C_SUBSETS.
* deg9-scan  all 1458 Deg9 shapes over GF(9).  Thousands of small
  polynomials: per-call overhead and `roots_in` over GF(9^4) through
  table-less tower multiplication.  The seed is unused.  The four known
  case-iv prediction mismatches stay in and count as failed items.

There is no `verify` workload: on a 2-core shared host the run-to-run spread
of every timing follows the host's speed, which swings by a third within
minutes, so the benchmark keeps three workloads and gives each a longer run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

# c-goodness-scan subsets.  On GF(9) the C items fall in three work classes by
# the factor degrees of v_g: e = 0 (fast), and for e != 0 a class with cubic
# factors (about 2.3 s) and a class with degree-12 factors (about 4.5 s).  The
# a values pair up as {4, 8} and {5, 7} so that for every e != 0 one a of the
# pair is in each class; a subset {a, a'} x {e} therefore always holds one
# item of each class.  The subsets listed are those whose summed `goodness`
# time (the least of five timings per item, at the commit that added this
# benchmark) lay within 2% of the median over all 16 such subsets, so that
# seeds differ in parameters but hardly in work.
C_SUBSETS = (
    ((4, 8), 8), ((4, 8), 2), ((5, 7), 4), ((5, 7), 6),
    ((5, 7), 5), ((4, 8), 7), ((5, 7), 8), ((4, 8), 4),
)


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    m: int
    tower_n: Optional[int]      # tower the workload builds, if any
    tables: bool                # whether it brute-forces (builds exp/log tables)


WORKLOADS = {w.name: w for w in (
    Workload("a2-char2-scan", 2, 5, 4, True),
    Workload("c-goodness-scan", 3, 2, None, False),
    Workload("deg9-scan", 3, 2, 4, False),
)}


@dataclass(frozen=True)
class Inputs:
    argv: list                  # cppforge CLI arguments, without --out
    items: list                 # expected item keys, in order


def params_key(params: dict) -> str:
    return json.dumps(params, sort_keys=True)


def encode_b(b: list, p: int, m: int) -> int:
    """Tower encoding of a witness given as base-field coefficient vectors."""
    q = p ** m
    return sum(sum(c * p ** i for i, c in enumerate(cj)) * q ** j
               for j, cj in enumerate(b))


def deg9_items(q: int) -> list:
    els, units = range(q), range(1, q)
    items = [{"case": "i", "A3": a3, "A6": a6} for a3 in els for a6 in els]
    items += [{"case": "ii", "A6": a6, "A8": a8} for a6 in els for a8 in els]
    items += [{"case": "iii", "A3": a3, "A4": a4, "A5": a5}
              for a3 in els for a4 in units for a5 in els]
    items += [{"case": "iv", "A2": a2, "A3": a3, "A5": a5}
              for a2 in units for a3 in els for a5 in els]
    return items


def make_inputs(name: str, seed: int) -> Inputs:
    """The workload's command line and expected items for one seed."""
    if name == "a2-char2-scan":
        a = 1 + seed % 31
        argv = ["scan", "--family", "A2", "--p", "2", "--m", "5", "--n", "4",
                "--workers", "2", "--range", json.dumps({"a": [a]})]
        items = [{"a": a, "e": e} for e in range(32)]
        return Inputs(argv, [params_key(i) for i in items])
    if name == "c-goodness-scan":
        pair, e = C_SUBSETS[seed % len(C_SUBSETS)]
        argv = ["scan", "--family", "C", "--p", "3", "--m", "2",
                "--range", json.dumps({"a": list(pair), "e": [e]})]
        items = [{"r": 3, "a": a, "e": e} for a in pair]
        return Inputs(argv, [params_key(i) for i in items])
    if name == "deg9-scan":
        argv = ["scan", "--family", "Deg9", "--p", "3", "--m", "2"]
        return Inputs(argv, [params_key(i) for i in deg9_items(9)])
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Verdicts:
    completed: int              # items the report accounts for
    failed: int                 # mismatches and missing items
    unexpected: int             # report entries naming no expected item
    digest: str                 # hash of the sorted per-item verdicts
    report_ok: bool = True      # a report was written and had the expected form


def _digest(per_item: dict) -> str:
    text = json.dumps(sorted(per_item.items()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_report(inputs: Inputs, report: Optional[dict]) -> Verdicts:
    """Per-item verdicts of one report, scored against the expected items.

    A failed item is a reported mismatch or a missing item.  A missing or
    malformed report (crash or internal error) fails every item.
    """
    if report is not None:
        try:
            return _score(inputs, report)
        except (KeyError, TypeError, ValueError):
            pass
    return Verdicts(0, len(inputs.items), 0, "no-report", report_ok=False)


def _score(inputs: Inputs, report: dict) -> Verdicts:
    n = len(inputs.items)
    per_item = {k: [] for k in inputs.items}
    unexpected = 0
    mismatched = set()
    for entry, kind in ([(s, "skip") for s in report["skips"]]
                        + [(m, "mismatch") for m in report["mismatches"]]):
        key = params_key(entry["params"])
        if key not in per_item:
            unexpected += 1
            continue
        detail = entry.get("reason") or entry.get("kind")
        per_item[key].append([kind, detail, entry.get("b")])
        if kind == "mismatch":
            mismatched.add(key)
    p, m = report["config"]["p"], report["config"]["m"]
    for w in report["witnesses"]:
        key = params_key(w["params"])
        if key not in per_item:
            unexpected += 1
            continue
        per_item[key].append(["witness", encode_b(w["b"], p, m), w["verified"], w["passed"]])
    for v in per_item.values():
        v.sort(key=json.dumps)
    counts = report["counts"]
    completed = counts["constructed"] + counts["skipped"]
    failed = len(mismatched) + max(0, n - completed)
    return Verdicts(min(completed, n), failed, unexpected, _digest(per_item))
