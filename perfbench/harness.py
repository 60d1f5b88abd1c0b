"""Measurement loop, traced run and result reporting for the benchmark.

Imported by ``run.py`` once ``src`` and ``tests`` are on ``sys.path``.

Every time reported is a wall time scaled to the reference host of
``probe.py``: the command probe is timed right before and right after each
command, and the import probe right after each import for ``setup_s``, all
outside the timed regions.  The raw wall times are printed next to the
metrics.
"""

from __future__ import annotations

import gc
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from catlp import cli

from probe import command_slowdown
from tracer import Tracer
from workloads import WORKLOADS, build_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_run"

#: A run keeps issuing passes until it has this many commands, so the p90
#: has at least ten samples beyond it.
MIN_COMMANDS = 100

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 15

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import catlp.cli
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from probe import import_slowdown
print(elapsed, elapsed / import_slowdown())
"""


def setup_seconds() -> tuple[float, float]:
    """Medians of raw and scaled ``import catlp.cli`` time in fresh interpreters."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(HERE)]
    subprocess.run(argv, check=True, capture_output=True, timeout=60)  # writes bytecode
    samples = [
        [float(x) for x in subprocess.run(argv, check=True, capture_output=True, text=True,
                                          timeout=60).stdout.split()]
        for _ in range(SETUP_REPEATS)]
    raw, scaled = zip(*samples)
    return statistics.median(raw), statistics.median(scaled)


class Runner:
    """Issues commands one after another and keeps their failures and time scales."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.issued = 0
        self.failed = 0
        self.factors: dict[int, float] = {}  # command id -> time scale
        WORK.mkdir(exist_ok=True)
        self.program = WORK / f"program-{workload}-{seed}.lp"

    def close(self) -> None:
        self.program.unlink(missing_ok=True)

    def run(self, command, tracer=None) -> float | None:
        """Run one command; its raw wall time, or None if it crashed."""
        prefix = f"k{self.issued}_"
        self.issued += 1
        self.program.write_text(command.text.replace("@", prefix), encoding="utf-8")
        argv = [command.verb, str(self.program), *(a.replace("@", prefix) for a in command.args)]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        gc.freeze()  # earlier commands' objects stay out of this one's collections
        if tracer is not None:
            tracer.command = self.issued
        before = command_slowdown()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                code = cli.run(argv)
                elapsed = perf_counter() - start
            ok = code == 0 and command.check(out.getvalue().replace(prefix, "@"))
        except Exception:  # a crash or unreadable output is a failed command
            elapsed, ok = None, False
            traceback.print_exc(file=err)
        self.factors[self.issued] = 1 / math.sqrt(before * command_slowdown())
        if not ok:
            self.failed += 1
            print(f"FAILED {command.name} (workload {self.workload}, seed {self.seed}, "
                  f"command {self.issued}): {err.getvalue().strip()[:400]}", file=sys.stderr)
        return elapsed

    def run_pass(self, commands, tracer=None) -> tuple[list[float], list[float]]:
        """Raw and scaled seconds of the commands that did not crash."""
        raw, scaled = [], []
        for command in commands:
            elapsed = self.run(command, tracer)
            if elapsed is not None:
                raw.append(elapsed)
                scaled.append(elapsed * self.factors[self.issued])
        return raw, scaled


def _command_stats(times: list[float]) -> dict[str, float]:
    return {
        "cmd_s.p50": statistics.median(times),
        "cmd_s.p90": statistics.quantiles(times, n=10)[8],
        "cmds_per_s": len(times) / sum(times),
    }


def measure(workload: str, seed: int, seconds: float, smoke: bool = False):
    """End-to-end metrics with tracing off: whole passes for ``seconds``."""
    rng = random.Random(f"{workload}:{seed}")
    setup_raw, setup = setup_seconds()
    runner = Runner(workload, seed)
    raw: list[float] = []
    scaled: list[float] = []
    began = perf_counter()
    passes = 0
    while passes == 0 or not smoke and (
            perf_counter() - began < seconds or runner.issued < MIN_COMMANDS):
        pass_raw, pass_scaled = runner.run_pass(build_pass(workload, rng, smoke))
        raw += pass_raw
        scaled += pass_scaled
        passes += 1
        if passes == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.close()
    metrics = {"setup_s": setup, "peak_rss_mb": peak_rss_mb, **_command_stats(scaled)}
    wall = _command_stats(raw)
    notes = [
        f"{runner.issued} commands in {passes} passes over {perf_counter() - began:.1f} s; "
        f"p50/p90 over {len(scaled)} samples",
        f"failed_ratio {runner.failed / runner.issued:.4f} ({runner.failed}/{runner.issued})",
        f"raw wall: setup_s {setup_raw:.5g}, "
        + ", ".join(f"{name} {value:.5g}" for name, value in wall.items()),
        f"setup_s median of {SETUP_REPEATS} fresh imports; peak_rss_mb after the first pass",
    ]
    return runner, metrics, notes


def trace(workload: str, seed: int, smoke: bool = False):
    """Per-layer metrics from one traced pass, next to one untraced pass.

    A smoke-size pass runs first, so one-time costs such as regex
    compilation land in neither timed pass.
    """
    rng = random.Random(f"{workload}:{seed}")
    runner = Runner(workload, seed)
    runner.run_pass(build_pass(workload, rng, smoke=True))  # first-call costs, untimed
    commands = build_pass(workload, rng, smoke)
    untraced = sum(runner.run_pass(commands)[1])
    tracer = Tracer()
    tracer.install()
    try:
        traced = sum(runner.run_pass(commands, tracer)[1])
    finally:
        tracer.uninstall()
        runner.close()
    metrics = tracer.metrics(runner.factors)
    metrics["trace.overhead_ratio"] = traced / untraced
    spans = WORK / f"spans-{workload}-{seed}.tsv"
    tracer.write_spans(spans)
    notes = [f"{len(tracer.span_start)} spans over {len(commands)} commands "
             f"written to {spans.relative_to(ROOT)}; self times scaled like command times"]
    return runner, metrics, notes


def catalog(kind: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(runner: Runner, metrics: dict, notes: list[str], kind: str) -> dict:
    """Print every metric by name and unit, then the JSON result line."""
    units = catalog(kind)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"metrics not produced: {', '.join(missing)}")
    print(f"workload {runner.workload}, seed {runner.seed}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.issued,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return result


def smoke() -> int:
    """Every workload and its traced run once at tiny sizes; all metrics, no failures."""
    bad = []
    for workload in WORKLOADS:
        if report(*measure(workload, 0, 0, smoke=True), "end_to_end")["failed"]:
            bad.append(f"{workload} end_to_end")
        if report(*trace(workload, 0, smoke=True), "per_layer")["failed"]:
            bad.append(f"{workload} per_layer")
    print("smoke: " + ("FAILED " + ", ".join(bad) if bad else "ok"))
    return 1 if bad else 0
