"""catlp benchmark: closed-loop CLI workloads, checked answers, per-layer trace.

One client, one process, one thread: each command starts only after the
previous one returns.  Every command goes in-process through
``catlp.cli.run(argv)`` with stdout captured, on a program file whose atom
names no other command uses, and its output is checked against a reference
computed before timing starts.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics for ``--seconds`` (whole
passes, at least 100 commands).  ``--trace 1`` runs one pass untraced and
one traced and reports the per-layer metrics; spans go to ``.bench_run/``.
The last stdout line is the JSON result; metric names and units are those
of BENCHMARK.json.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("solve", "check", "analyze"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload and traced run once")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "catlp" / "cli.py").is_file():
        print(f"no catlp sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import harness

    if args.smoke:
        return harness.smoke()
    if args.trace:
        harness.report(*harness.trace(args.workload, args.seed), "per_layer")
    else:
        harness.report(*harness.measure(args.workload, args.seed, args.seconds), "end_to_end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
