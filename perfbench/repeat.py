"""Run the benchmark once per seed and summarise every metric across the runs.

    python3 perfbench/repeat.py --workload solve --seeds 1-10 [--trace 1] [--json OUT]

Each run is a separate ``run.py`` process, as the benchmark is meant to be
run.  For every metric this prints the median, the quartiles and the spread
(interquartile distance over the median, from ``statistics.quantiles``);
``--json`` also writes them, with every run's values, to OUT.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        low, median, high = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (high - low) / median if median else 0.0
        summary[name] = {"unit": first["unit"], "median": median, "q1": low, "q3": high,
                         "spread": spread, "values": values}
        print(f"{name:40s} median {median:.6g} {first['unit']}  "
              f"q1 {low:.6g}  q3 {high:.6g}  spread {spread:.3f}")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
            "trace": args.trace, "all_correct": all(run["correct"] for run in runs),
            "metrics": summary}, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
