"""The cppforge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the sources under src/ and writes
only to .bench_tmp/ there, which it removes again, and to Python's
__pycache__ directories.  Workloads and checks are in
workloads.py; the metrics are named in BENCHMARK.json.

With --trace 0 it measures end to end.  It times set-up (import cppforge and
build the workload's field, tower and tables) in fresh processes and reports
the median, then runs the workload's cppforge command in a fresh process, one
at a time, until S seconds have passed, and reports medians over those
commands:

* items_per_s   items completed per wall-clock second of the whole command
* cpu_s         user plus system CPU seconds of the process tree
* peak_rss_mb   summed peak resident memory of the processes in the tree
* pass_ratio    1 - fail_ratio, over every item attempted in the run
* setup_s       median set-up time, over at least SETUP_REPS set-ups and
                SETUP_MIN_S seconds of them

fail_ratio is failed items over items attempted; it is printed too, but the
gated metric is its complement because fail_ratio reads 0 on most workloads.

With --trace 1 it runs the command in process and serially, UNTRACED_REPS
times without tracing and once, after the first of those, with the spans and
counters of tracing.py.  It reports the per-layer metrics and the tracing
overhead against the median untraced wall time, and prints each layer's
self-time share.

Every run checks the outputs (workloads.check_report), prints a digest of the
per-item verdicts, provenance and a calibration loop time, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  "correct" is false
when a command writes no well-formed report, names an item it was not given,
or when verdict digests differ between the commands of a run (or between the
traced and untraced runs).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS, Inputs, check_report, make_inputs  # noqa: E402

SETUP_REPS = 3
SETUP_MIN_S = 2.0       # cheap set-ups repeat more, so their median holds still
UNTRACED_REPS = 3
DEADLINE_S = 170.0      # every process started is killed by then
CALIBRATION_LOOP = 1_500_000


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit: int
    stdout: str


def _tree_pids(root: int) -> list:
    pids, i = [root], 0
    while i < len(pids):
        try:
            tasks = os.listdir(f"/proc/{pids[i]}/task")
        except OSError:
            tasks = []
        for tid in tasks:
            try:
                with open(f"/proc/{pids[i]}/task/{tid}/children") as fh:
                    pids += [int(c) for c in fh.read().split()]
            except OSError:
                pass
        i += 1
    return pids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_process(cmd: list, workdir: Path, deadline: float) -> Proc:
    """Run cmd in its own process group; wall, tree CPU and tree peak RSS.

    CPU comes from wait4, which includes the descendants the child waited
    for.  Peak RSS sums each process's high-water mark, sampled every 100 ms;
    a high-water mark only grows, so a process need only be seen once late in
    its life, and the sampler stays off the two cores the workers use.
    The whole group is killed at the deadline and after the child exits.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # time imports from bytecode, as installed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_path = workdir / "child.out"
    peaks: dict = {}
    stop = threading.Event()
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)

        def sample():
            while not stop.wait(0.1):
                for pid in _tree_pids(proc.pid):
                    peaks[pid] = max(peaks.get(pid, 0), _hwm_kb(pid))
                if time.perf_counter() > deadline:
                    _kill_group(proc.pid)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        stop.set()
        sampler.join()
        _kill_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
    rss_kb = sum(peaks.values()) or usage.ru_maxrss
    return Proc(wall, usage.ru_utime + usage.ru_stime, rss_kb / 1024.0,
                proc.returncode, out_path.read_text())


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def child(args: list, workdir: Path, deadline: float) -> tuple:
    """Run a bench/child.py step; returns (Proc, its JSON line or None)."""
    proc = run_process([sys.executable, str(BENCH / "child.py"), *args], workdir, deadline)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc, (json.loads(lines[-1]) if proc.exit == 0 and lines else None)
    except json.JSONDecodeError:
        return proc, None


def read_report(path: Path, exit_code: int) -> Optional[dict]:
    if exit_code not in (0, 1) or not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; shows host-speed drift, scales nothing."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def provenance() -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def serial(argv: list) -> list:
    """The command line with one worker: the in-process runs are serial."""
    return ["1" if prev == "--workers" else a for prev, a in zip([""] + argv, argv)]


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    digests: list
    metrics: dict               # the metrics of BENCHMARK.json: name -> (value, unit)
    samples: dict               # per-command values behind the medians
    detail: dict = field(default_factory=dict)  # printed only: name -> (value, unit)


def end_to_end(name: str, inputs: Inputs, seconds: float, workdir: Path,
               deadline: float) -> Result:
    n = len(inputs.items)
    setups = []
    t0 = time.perf_counter()
    while len(setups) < SETUP_REPS or time.perf_counter() - t0 < SETUP_MIN_S:
        _, out = child(["setup", name], workdir, deadline)
        if out is None:
            raise RuntimeError("set-up step failed")
        setups.append(out["setup_s"])
    rows, digests, correct = [], set(), True
    t0 = time.perf_counter()
    while True:
        report_path = workdir / f"report{len(rows)}.json"
        proc = run_process([sys.executable, "-m", "cppforge.cli", *inputs.argv,
                            "--out", str(report_path)], workdir, deadline)
        verdicts = check_report(inputs, read_report(report_path, proc.exit))
        if not verdicts.report_ok:
            print(f"command failed with exit {proc.exit}:\n{proc.stdout[-2000:]}",
                  file=sys.stderr)
        correct &= verdicts.report_ok and verdicts.unexpected == 0
        digests.add(verdicts.digest)
        rows.append((proc, verdicts))
        elapsed = time.perf_counter() - t0
        per_command = elapsed / len(rows)
        if (elapsed + per_command > seconds
                or time.perf_counter() + 1.5 * per_command > deadline):
            break
    attempted = n * len(rows)
    failed = sum(v.failed for _, v in rows)
    samples = {
        "items_per_s": [v.completed / p.wall_s for p, v in rows],
        "cpu_s": [p.cpu_s for p, _ in rows],
        "peak_rss_mb": [p.peak_rss_mb for p, _ in rows],
        "wall_s": [p.wall_s for p, _ in rows],
        "setup_s": setups,
    }
    metrics = {
        "items_per_s": (statistics.median(samples["items_per_s"]), "1/s"),
        "cpu_s": (statistics.median(samples["cpu_s"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
        "pass_ratio": (1.0 - failed / attempted, "ratio"),
    }
    return Result(correct and len(digests) == 1, attempted, failed, sorted(digests),
                  metrics, samples)


def traced(inputs: Inputs, workdir: Path, deadline: float) -> Result:
    """UNTRACED_REPS untraced in-process runs and one traced run after the first."""
    argv = serial(inputs.argv)
    n = len(inputs.items)
    spans_path = workdir / "spans.json"
    steps = [["run", str(workdir / f"plain{i}.json"), "--", *argv]
             for i in range(UNTRACED_REPS)]
    steps.insert(1, ["trace", str(workdir / "traced.json"), str(spans_path), "--", *argv])
    plain, digests, correct = [], set(), True
    for step in steps:
        proc, out = child(step, workdir, deadline)
        if out is None:
            print(f"in-process run failed:\n{proc.stdout[-2000:]}", file=sys.stderr)
            return Result(False, n, n, ["no-report"], {}, {})
        verdicts = check_report(inputs, read_report(Path(step[1]), out["exit"]))
        correct &= verdicts.report_ok and verdicts.unexpected == 0
        digests.add(verdicts.digest)
        if step[0] == "trace":
            trace_out, failed = out, verdicts.failed
        else:
            plain.append(out["wall_s"])
    data = json.loads(spans_path.read_text())
    data["untraced_wall_s"] = statistics.median(plain)
    metrics, shares = tracing.layer_metrics(data)
    return Result(correct and len(digests) == 1, n, failed, sorted(digests), metrics,
                  {"untraced_wall_s": plain, "traced_wall_s": [trace_out["wall_s"]]}, shares)


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cppforge" / "cli.py").is_file():
        print(f"bench: no cppforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calib = [calibrate()]
        inputs = make_inputs(args.workload, args.seed)
        if args.trace:
            res = traced(inputs, workdir, deadline)
        else:
            res = end_to_end(args.workload, inputs, args.seconds, workdir, deadline)
        calib.append(calibrate())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("command: cppforge " + " ".join(inputs.argv))
    print("provenance: " + json.dumps(dict(provenance(), calibration_s=calib)))
    print(f"verdict digest: {' '.join(res.digests)}  ({len(inputs.items)} items per command)")
    print(f"fail_ratio = {res.failed / res.attempted!r} ratio  ({res.failed}/{res.attempted})")
    for key, values in res.samples.items():
        print(f"samples {key}: " + " ".join(f"{v:.6g}" for v in values))
    for key, (value, unit) in list(res.detail.items()) + list(res.metrics.items()):
        print(f"{key} = {value!r} {unit}")
    print(json.dumps({
        "correct": bool(res.correct), "attempted": res.attempted, "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
