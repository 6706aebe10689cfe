"""Benchmark steps that each run in a fresh interpreter; each prints one JSON line.

    python3 bench/child.py setup WORKLOAD          time import plus field set-up
    python3 bench/child.py run REPORT -- ARGV      time cli.main(ARGV) in process
    python3 bench/child.py trace REPORT SPANS -- ARGV
                                                   the same, traced; spans to SPANS

ARGV is a cppforge command line; REPORT receives its JSON report.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def setup(name: str) -> dict:
    from workloads import WORKLOADS
    w = WORKLOADS[name]
    t0 = time.perf_counter()
    from cppforge.gf import mk_field, mk_tower
    ctx = mk_field(w.p, w.m)
    if w.tower_n:
        ctx = mk_tower(ctx, w.tower_n)
    if w.tables:
        ctx.ensure_tables()
    return {"setup_s": time.perf_counter() - t0}


def run(report: str, argv: list, spans: str = "") -> dict:
    from cppforge import cli
    main = cli.main
    if spans:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        main = tracer.wrap("cli.main", cli.main)
    t0 = time.perf_counter()
    code = main(argv + ["--out", report])
    wall = time.perf_counter() - t0
    if spans:
        Path(spans).write_text(json.dumps(tracer.result(wall)))
    return {"wall_s": wall, "exit": code}


def main(args: list) -> int:
    mode = args[0]
    if mode == "setup":
        out = setup(args[1])
    elif mode in ("run", "trace"):
        sep = args.index("--")
        out = run(args[1], args[sep + 1:], args[2] if mode == "trace" else "")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
