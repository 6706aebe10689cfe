"""Traced runs: spans and counters around the calls into each cppforge layer.

The layers are the five modules: gf, poly, cpp_core, families and cli.  The
wrappers are installed from outside, in every module namespace where a traced
function's name is looked up (cli imports goodness, witnesses_from_good,
is_cpp_monomial and enumerate_family by name; cpp_core imports factorize and
roots_in; families imports roots_in, factorize, is_irreducible and mk_tower),
and on the classes whose methods are traced.  Nothing in the package changes.

A span is [name, start, end, parent index, item index].  Spans are kept in
memory and written out when the run ends.  Each next() of the
enumerate_family generator is a span whose item index later calls on that
item's polynomial inherit.  Tower.mul and abs_trace2 are counted without
opening a span per call; the time inside Tower.mul is summed per enclosing
span and moved from that span's self time to the gf layer.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict

# the Poly methods whose calls make up poly.arith
POLY_ARITH = ("__mul__", "__pow__", "__divmod__", "shift")

# traced self times must sum to the traced wall time within this share
SELF_SUM_TOLERANCE = 0.01

LAYERS = ("gf", "poly", "cpp_core", "families", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = defaultdict(int)
        self.g_items: dict = {}          # id(item polynomial) -> item index
        self.mul_time: dict = defaultdict(float)  # span index -> seconds in Tower.mul

    def result(self, wall_s: float) -> dict:
        """Everything layer_metrics needs, JSON-ready."""
        return {"spans": self.spans, "counts": dict(self.counts), "mul_time": self.mul_time,
                "wall_s": wall_s, "table_bytes": table_bytes()}

    def wrap(self, name: str, fn, item_of=None, after=None):
        """fn with a span around each call."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            item = item_of(args) if item_of else None
            if item is None and parent >= 0:
                item = spans[parent][4]
            rec = [name, 0.0, 0.0, parent, item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, fn):
        """fn with a call counter and no span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap_enumerate(self, fn):
        """enumerate_family whose every next() is a span carrying the item index."""
        tracer = self

        def traced(*args, **kwargs):
            return tracer._items(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def _items(self, gen):
        spans, stack, clock, counts = self.spans, self.stack, time.perf_counter, self.counts
        index = 0
        while True:
            parent = stack[-1] if stack else -1
            rec = ["families.enumerate", 0.0, 0.0, parent, index]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                obj = next(gen)
            except StopIteration:
                return
            finally:
                rec[2] = clock()
                stack.pop()
            counts["families.items"] += 1
            if type(obj).__name__ == "FamilySkip":
                counts["families.skips"] += 1
            else:
                self.g_items[id(obj.g)] = index
            yield obj
            index += 1


def install(tracer: Tracer):
    """Install the wrappers; returns a function that removes them."""
    from cppforge import cli, cpp_core, families, gf, poly
    from cppforge.gf import Context, Tower
    from cppforge.poly import Poly

    counts = tracer.counts
    item_of_g = lambda args: tracer.g_items.get(id(args[0])) if args else None  # noqa: E731

    def count_good(rep):
        counts["cpp_core.goodness.good"] += rep.is_good

    def count_elements(vals):
        counts["cpp_core.is_cpp_monomial.elements"] += len(vals)

    json_index = itertools.count()

    def json_item(_args):
        return next(json_index)

    functions = [
        (gf.mk_tower, tracer.wrap("gf.mk_tower", gf.mk_tower)),
        (gf.artin_schreier_root, tracer.wrap("gf.artin_schreier_root", gf.artin_schreier_root)),
        (gf.abs_trace2, tracer.count("gf.abs_trace2.calls", gf.abs_trace2)),
        (poly.factorize, tracer.wrap("poly.factorize", poly.factorize)),
        (poly.roots_in, tracer.wrap("poly.roots_in", poly.roots_in)),
        (poly.squarefree_part, tracer.wrap("poly.squarefree_part", poly.squarefree_part)),
        (poly.is_irreducible, tracer.wrap("poly.is_irreducible", poly.is_irreducible)),
        (cpp_core.goodness, tracer.wrap("cpp_core.goodness", cpp_core.goodness,
                                        item_of_g, count_good)),
        (cpp_core.witnesses_from_good, tracer.wrap("cpp_core.witnesses_from_good",
                                                   cpp_core.witnesses_from_good, item_of_g)),
        (cpp_core.is_cpp_monomial, tracer.wrap("cpp_core.is_cpp_monomial",
                                               cpp_core.is_cpp_monomial)),
        (cpp_core._eval_all_sparse, tracer.wrap("cpp_core.eval_all", cpp_core._eval_all_sparse,
                                                after=count_elements)),
        (cpp_core.witness_from_json, tracer.wrap("cpp_core.witness_from_json",
                                                 cpp_core.witness_from_json, json_item)),
        (cpp_core.scalar_class_count, tracer.wrap("cpp_core.scalar_class_count",
                                                  cpp_core.scalar_class_count)),
        (families.enumerate_family, tracer.wrap_enumerate(families.enumerate_family)),
        (families.construct_a2, tracer.wrap("families.construct_a2", families.construct_a2)),
        (families.construct_c, tracer.wrap("families.construct_c", families.construct_c)),
        (families.classify_deg9, tracer.wrap("families.classify_deg9", families.classify_deg9)),
        (cli.run_scan, tracer.wrap("cli.run_scan", cli.run_scan)),
        (cli._write_report, tracer.wrap("cli.report", cli._write_report)),
    ]
    undo = []
    for mod in (gf, poly, cpp_core, families, cli):
        for name, value in list(vars(mod).items()):
            for orig, wrapper in functions:
                if value is orig:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, value))

    tower_mul, stack, mul_time, clock = Tower.mul, tracer.stack, tracer.mul_time, time.perf_counter

    def mul(tower, a, b):
        counts["gf.tower_mul.calls"] += 1
        if tower._log is None:
            counts["gf.tower_mul.untabled"] += 1
        t0 = clock()
        out = tower_mul(tower, a, b)
        mul_time[stack[-1] if stack else -1] += clock() - t0
        return out

    methods = [(Tower, "mul", mul),
               (Context, "ensure_tables",
                tracer.wrap("gf.ensure_tables", Context.ensure_tables))]
    methods += [(Poly, name, tracer.wrap("poly.arith", getattr(Poly, name)))
                for name in POLY_ARITH]
    for cls, name, wrapper in methods:
        undo.append((cls, name, vars(cls)[name]))
        setattr(cls, name, wrapper)

    def uninstall():
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)

    return uninstall


def table_bytes() -> int:
    """Bytes of the exp/log tables held by all interned fields and towers."""
    from cppforge import gf
    total = 0
    for ctx in list(gf._FIELD_CACHE.values()) + list(gf._TOWER_CACHE.values()):
        for arr in (ctx._exp, ctx._log):
            if arr is not None:
                total += arr.nbytes
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(trace: dict) -> tuple:
    """Per-layer metrics of one traced run, and each layer's self-time share.

    Both are dicts name -> (value, unit).  The metrics are those named in
    BENCHMARK.json; a function the workload never calls reads 0 there.  The
    shares (layer self time over traced wall time) are printed only: they
    sum to about 1, so they attribute a run's time but cannot show a speed-up.
    """
    spans, counts = trace["spans"], defaultdict(int, trace["counts"])
    wall = trace["wall_s"]
    selfs = self_times(spans)
    mul_time = {int(k): t for k, t in trace["mul_time"].items()}
    for i, t in mul_time.items():
        if i >= 0:
            selfs[i] -= t
    calls = defaultdict(int)
    incl = defaultdict(float)       # outermost spans of a name only
    own = defaultdict(float)        # self time per span name
    enum_self = 0.0
    for i, (name, start, end, parent, _item) in enumerate(spans):
        calls[name] += 1
        own[name] += selfs[i]
        p, nested, under_enum = parent, False, name == "families.enumerate"
        while p >= 0:
            pname = spans[p][0]
            nested = nested or pname == name
            under_enum = under_enum or pname == "families.enumerate"
            p = spans[p][3]
        if not nested:
            incl[name] += end - start
        if under_enum and name.startswith("families."):
            enum_self += selfs[i]
    layer_self = defaultdict(float)
    for name, t in own.items():
        layer_self[name.split(".")[0]] += t
    tower_mul_s = sum(mul_time.values(), 0.0)
    layer_self["gf"] += tower_mul_s

    def ratio(a, b):
        return a / b if b else 0.0

    s, c, r = "s", "count", "ratio"
    m = {
        "gf.ensure_tables.s": (incl["gf.ensure_tables"], s),
        "gf.ensure_tables.bytes": (trace["table_bytes"], "bytes"),
        "gf.mk_tower.s": (incl["gf.mk_tower"], s),
        "gf.mk_tower.calls": (calls["gf.mk_tower"], c),
        "gf.tower_mul.s": (tower_mul_s, s),
        "gf.tower_mul.calls": (counts["gf.tower_mul.calls"], c),
        "gf.tower_mul.untabled_ratio": (ratio(counts["gf.tower_mul.untabled"],
                                              counts["gf.tower_mul.calls"]), r),
        "gf.artin_schreier_root.s": (incl["gf.artin_schreier_root"], s),
        "gf.artin_schreier_root.calls": (calls["gf.artin_schreier_root"], c),
        "gf.abs_trace2.calls": (counts["gf.abs_trace2.calls"], c),
        "gf.artin_schreier_root.traces_per_root": (
            ratio(counts["gf.abs_trace2.calls"], calls["gf.artin_schreier_root"]), r),
        "poly.factorize.s": (incl["poly.factorize"], s),
        "poly.factorize.calls": (calls["poly.factorize"], c),
        "poly.roots_in.s": (incl["poly.roots_in"], s),
        "poly.roots_in.calls": (calls["poly.roots_in"], c),
        "poly.squarefree_part.s": (incl["poly.squarefree_part"], s),
        "poly.is_irreducible.s": (incl["poly.is_irreducible"], s),
        "poly.is_irreducible.calls": (calls["poly.is_irreducible"], c),
        "poly.arith.s": (incl["poly.arith"], s),
        "poly.arith.calls": (calls["poly.arith"], c),
        "cpp_core.goodness.s": (incl["cpp_core.goodness"], s),
        "cpp_core.goodness.calls": (calls["cpp_core.goodness"], c),
        "cpp_core.goodness.good_ratio": (ratio(counts["cpp_core.goodness.good"],
                                               calls["cpp_core.goodness"]), r),
        "cpp_core.is_cpp_monomial.s": (incl["cpp_core.is_cpp_monomial"], s),
        "cpp_core.is_cpp_monomial.calls": (calls["cpp_core.is_cpp_monomial"], c),
        "cpp_core.is_cpp_monomial.elements": (counts["cpp_core.is_cpp_monomial.elements"], c),
        "cpp_core.is_cpp_monomial.ns_per_element": (
            ratio(1e9 * incl["cpp_core.is_cpp_monomial"],
                  counts["cpp_core.is_cpp_monomial.elements"]), "ns"),
        "cpp_core.witnesses_from_good.self_s": (own["cpp_core.witnesses_from_good"], s),
        "cpp_core.witness_from_json.s": (incl["cpp_core.witness_from_json"], s),
        "cpp_core.witness_from_json.calls": (calls["cpp_core.witness_from_json"], c),
        "families.enumerate.self_s": (enum_self, s),
        "families.construct_a2.s": (incl["families.construct_a2"], s),
        "families.construct_a2.calls": (calls["families.construct_a2"], c),
        "families.construct_c.s": (incl["families.construct_c"], s),
        "families.construct_c.calls": (calls["families.construct_c"], c),
        "families.classify_deg9.s": (incl["families.classify_deg9"], s),
        "families.classify_deg9.calls": (calls["families.classify_deg9"], c),
        "families.skip_ratio": (ratio(counts["families.skips"], counts["families.items"]), r),
        "cli.self_s": (own["cli.run_scan"], s),
        "cli.report.s": (incl["cli.report"], s),
    }
    m["trace.wall_s"] = (wall, s)
    m["trace.untraced_wall_s"] = (trace["untraced_wall_s"], s)
    m["trace.overhead_ratio"] = (ratio(wall, trace["untraced_wall_s"]) - 1.0, r)
    m["trace.self_sum_error"] = (ratio(abs(sum(selfs) + tower_mul_s - wall), wall), r)
    m["trace.spans"] = (len(spans), c)
    shares = {f"{layer}.self_share": (ratio(layer_self[layer], wall), r) for layer in LAYERS}
    return m, shares

