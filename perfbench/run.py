#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the periodetect CLI.

Run from the repository root:

    python3 perfbench/run.py --workload mc_pfa_shiryaev --seed 1 --seconds 25 --trace 0

Workloads are listed in BENCHMARK.json; their inputs and reference outcomes
come from ``workloads.py``.  The package is run from ``src/`` as it stands in
the checkout; nothing is installed.

``--trace 0`` times the real CLI, ``python -m periodetect``, one fresh
process at a time (a closed loop with one client, ``--workers 1``), full-size
and minimal operations alternating for ``--seconds``.  Every operation's
output is checked against the reference before it counts.  It reports the
medians of

* ``wall_s``: process start to exit of the full-size operation;
* ``setup_s``: the same command at minimal size (one trial, or a one-row CSV);
* ``trials_per_s`` and ``samples_per_s``: Monte Carlo trials and scanned
  observations per ``wall_s`` (``detect`` counts its one stream as one trial);
* ``peak_rss_mb``: the peak resident set of that one child, from ``os.wait4``.

``--trace 1`` runs the same operation in this process through
``periodetect.cli.main``, alternating untraced and traced calls, and reports
the per-layer figures of ``tracing.py`` (medians over the traced calls; the
counts must repeat exactly; 0 for a layer the workload never enters), the
import time of a fresh interpreter and the tracing overhead.  The spans of the
last traced call go to ``.bench_work/<workload>/spans.csv``.  On
``mc_pfa_shiryaev`` it also checks that ``--workers 2`` gives the
``--workers 1`` report (C9).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine, the failed fraction and every figure by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OP_TIMEOUT_S = 150
MIN_TIMED_OPS = 3
IMPORT_REPEATS = 5


class Ledger:
    """Counts operations and their failures; ``problems`` are failed checks of the run itself."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(error)


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], work: Path, env: dict) -> tuple[float, float, int]:
    """Run one process to completion; return (wall seconds, peak RSS in MB, exit code)."""
    with open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "periodetect", *args]


def op_error(code: int, work: Path, check, label: str) -> str | None:
    """Failure message of one finished operation, or None if it succeeded."""
    if code != 0:
        stderr = (work / "stderr.txt").read_text(errors="replace").strip()
        return f"{label}: exit code {code}: {stderr[-300:]}"
    message = check(work)
    return None if message is None else f"{label}: {message}"


# ------------------------------------------------------------- trace 0

def timed_run(wl: workloads.Workload, work: Path, seconds: float, ledger: Ledger) -> dict:
    env = child_env()
    full, small = cli_argv(wl.full_argv), cli_argv(wl.small_argv)
    # Warm-up: byte-compiles the package; checked, not timed.
    _, _, code = run_child(small, work, env)
    ledger.record(op_error(code, work, wl.check_small, "warm-up"))
    # Full and minimal operations alternate, so both sample the same stretch of machine load.
    walls, rss, setup = [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_TIMED_OPS or time.perf_counter() < deadline:
        wall, peak, code = run_child(full, work, env)
        walls.append(wall)
        rss.append(peak)
        ledger.record(op_error(code, work, wl.check_full, f"operation {len(walls)}"))
        wall, _, code = run_child(small, work, env)
        setup.append(wall)
        ledger.record(op_error(code, work, wl.check_small, f"setup {len(setup)}"))
    wall_s = statistics.median(walls)
    print(f"timed operations: {len(walls)} full, wall_s min {min(walls):.4f} max {max(walls):.4f} s; "
          f"{len(setup)} minimal, setup_s min {min(setup):.4f} max {max(setup):.4f} s")
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup),
        "trials_per_s": wl.trials / wall_s,
        "samples_per_s": wl.samples / wall_s,
        "peak_rss_mb": statistics.median(rss),
    }


# ------------------------------------------------------------- trace 1

def import_seconds(env: dict) -> float:
    probe = "import time; t = time.perf_counter(); import periodetect; print(time.perf_counter() - t)"
    values = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        values.append(float(out.stdout))
    return statistics.median(values)


def in_process(cli, argv: list[str], work: Path) -> tuple[float, int]:
    """Run ``cli.main`` here; return (wall seconds, exit code), stderr as for a child."""
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with open("stderr.txt", "w") as err, contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            return time.perf_counter() - start, code
    finally:
        os.chdir(cwd)


def check_c9(wl: workloads.Workload, work: Path, env: dict, ledger: Ledger) -> None:
    """``--workers 2`` must reproduce the ``--workers 1`` report, ``config`` aside."""
    argv = list(wl.full_argv)
    argv[argv.index("--workers") + 1] = "2"
    argv[argv.index("--out") + 1] = "report_workers2.json"
    _, _, code = run_child(cli_argv(argv), work, env)

    def same_report(work: Path) -> str | None:
        one, two = (json.loads((work / name).read_text())
                    for name in ("report.json", "report_workers2.json"))
        one.pop("config")
        two.pop("config")
        return None if one == two else "report differs between --workers 1 and --workers 2"

    ledger.record(op_error(code, work, same_report, "C9"))


def traced_run(wl: workloads.Workload, work: Path, seconds: float, ledger: Ledger) -> dict:
    env = child_env()
    import_s = import_seconds(env)
    sys.path.insert(0, str(SRC))
    from periodetect import cli

    _, code = in_process(cli, wl.full_argv, work)  # warm-up, untimed
    ledger.record(op_error(code, work, wl.check_full, "warm-up"))
    if wl.name == "mc_pfa_shiryaev":
        check_c9(wl, work, env, ledger)
    plain, traced_walls, figures, counts = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_walls) < 2 or time.perf_counter() < deadline:
        wall, code = in_process(cli, wl.full_argv, work)
        plain.append(wall)
        ledger.record(op_error(code, work, wl.check_full, "untraced"))
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            wall, code = in_process(cli, wl.full_argv, work)
        traced_walls.append(wall)
        ledger.record(op_error(code, work, wl.check_full, "traced"))
        figures.append(tracing.layer_metrics(tracer))
        counts.append(dict(tracer.counts))
    if any(c != counts[0] for c in counts):
        ledger.problems.append("traced counts differ between repeats at a fixed seed")
    tracer.write_spans(work / "spans.csv")
    (work / "counts.json").write_text(json.dumps({"machine": machine(), "counts": counts[0]},
                                                 indent=2, sort_keys=True))
    # Counts are identical across repeats (checked above); times are medians.
    metrics = {name: statistics.median(f[name] for f in figures) if isinstance(value, float) else value
               for name, value in figures[0].items()}
    metrics["periodetect.import_s"] = import_s
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain) - 1.0
    print(f"traced operations: {len(traced_walls)}; untraced wall_s {statistics.median(plain):.4f} s; "
          f"spans written to {work / 'spans.csv'}")
    return metrics


# ---------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "periodetect" / "__init__.py").is_file():
        print(f"periodetect sources not found under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.prepare(args.workload, args.seed, work)
    ledger = Ledger()
    run = traced_run if args.trace else timed_run
    metrics = run(wl, work, args.seconds, ledger)

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    print("machine:", json.dumps(machine(), sort_keys=True))
    failed = len(ledger.errors)
    for error in ledger.errors[:5] + ledger.problems:
        print("FAILED", error)
    print(f"failed_frac: {failed / ledger.attempted:.4f} ({failed} of {ledger.attempted} operations)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not ledger.problems,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
