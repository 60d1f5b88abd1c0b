"""Cross-check the benchmark's trace against cProfile, one instance per workload.

    python3 perfbench/crosscheck.py [--seed N]

Each instance runs once under cProfile and once under the benchmark's
tracer, each time with fresh atom names.  cProfile's own time of every
function is charged to the nearest traced layer above it, splitting a
function shared by several callers in proportion to the time each caller
spent in it.  Both sides then give every layer a share of the command's
time; the check fails (exit 1) when they disagree on the dominant layer.
cProfile slows Python calls more than the tracer does, so the shares
differ; the dominant layer must not.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def instances(rng: random.Random):
    """(workload, command) pairs: the largest size of a main family per workload."""
    from families import aggregate_constraint, analysis_programs, choice_program, pair_programs

    yield "solve", choice_program(rng, 9)[0]
    yield "check", pair_programs(rng, 8)[0]
    window = analysis_programs("window", 9, *aggregate_constraint(rng, "window", 9))
    yield "analyze", window[2]


def run_once(cli, command, prefix: str, work: Path, call):
    """Run ``catlp`` on the renamed command through ``call(cli.run, argv)``."""
    program = work / "crosscheck.lp"
    program.write_text(command.text.replace("@", prefix), encoding="utf-8")
    argv = [command.verb, str(program), *(a.replace("@", prefix) for a in command.args)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = call(cli.run, argv)
    program.unlink()
    if code != 0 or not command.check(out.getvalue().replace(prefix, "@")):
        raise SystemExit(f"{command.name}: wrong answer")


def layer_of(code, layers) -> str | None:
    """The traced layer a profiled code object belongs to, if any."""
    if isinstance(code, str):  # a built-in function
        return None
    path = Path(code.co_filename)
    if path.parent.name != "catlp":
        return None
    return layers.get((path.stem, code.co_name))


def profile_shares(entries, layers) -> dict[str, float]:
    """Own time per layer, charging untraced functions to their callers' layers.

    Works on ``Profile.getstats()`` entries, which tell functions apart by
    code object; ``pstats`` keys by file, line and name, and so merges the
    ``__init__`` methods that ``dataclasses`` generates.
    """
    callers: dict = {}
    own: dict = {}
    for entry in entries:
        own[entry.code] = own.get(entry.code, 0.0) + entry.inlinetime
        for sub in entry.calls or ():
            edges = callers.setdefault(sub.code, {})
            edges[entry.code] = edges.get(entry.code, 0.0) + sub.totaltime
    memo: dict = {}

    def attribution(code, active=frozenset()):
        layer = layer_of(code, layers)
        if layer is not None:
            return {layer: 1.0}
        if code in memo:
            return memo[code]
        edges = {c: t for c, t in callers.get(code, {}).items() if c not in active}
        total = sum(edges.values())
        share: dict[str, float] = {}
        for caller, time in edges.items():
            weight = time / total if total else 1 / len(edges)
            for name, part in attribution(caller, active | {code}).items():
                share[name] = share.get(name, 0.0) + weight * part
        memo[code] = share or {"(outside catlp)": 1.0}
        return memo[code]

    layer_time: dict[str, float] = {}
    for code, seconds in own.items():
        for name, part in attribution(code).items():
            layer_time[name] = layer_time.get(name, 0.0) + seconds * part
    total = sum(layer_time.values())
    return {name: value / total for name, value in layer_time.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from catlp import cli
    from tracer import LAYERS, Tracer

    work = ROOT / ".bench_run"
    work.mkdir(exist_ok=True)
    mismatches = 0
    for index, (workload, command) in enumerate(instances(random.Random(args.seed))):
        profiler = cProfile.Profile()
        run_once(cli, command, f"p{index}_", work, profiler.runcall)
        profiled = profile_shares(profiler.getstats(), LAYERS)

        tracer = Tracer()
        tracer.install()
        try:
            run_once(cli, command, f"t{index}_", work, lambda f, argv: f(argv))
        finally:
            tracer.uninstall()
        _, self_s = tracer.self_times()
        total = sum(self_s)
        traced = {name: self_s[i] / total for i, name in enumerate(tracer.layer_names)}

        top_profiled = max(profiled, key=profiled.get)
        top_traced = max(traced, key=traced.get)
        agree = top_profiled == top_traced
        mismatches += not agree
        print(f"{workload}: {command.name}, {total:.3f} s traced; dominant layer "
              f"{top_traced} (trace) vs {top_profiled} (cProfile): "
              f"{'agree' if agree else 'DISAGREE'}")
        for name in sorted(set(traced) | set(profiled), key=lambda n: -traced.get(n, 0.0)):
            if traced.get(name, 0.0) >= 0.01 or profiled.get(name, 0.0) >= 0.01:
                print(f"  {name:34s} trace {traced.get(name, 0.0):6.1%}   "
                      f"cProfile {profiled.get(name, 0.0):6.1%}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
