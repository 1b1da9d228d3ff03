#!/usr/bin/env python3
"""Run ``bench/run.py --trace 0`` once per seed and report each spread.

    python3 bench/spread.py --workload pool-default --seeds 1-10

For every end-to-end metric: the median over the runs, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's regression bound.  A workload is steady
enough when each spread is well under its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

from stats import quartile_spread
from workloads import WORKLOAD_NAMES, metric

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    chosen = list(range(int(first), int(last or first) + 1))
    if len(chosen) < 2:
        raise argparse.ArgumentTypeError("quartiles need at least two seeds")
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"),
                        help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)

    runs: Dict[str, List[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, entry in result["metrics"].items():
            runs.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={entry['value']:.6g}"
            for name, entry in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}:")
    print(f"  {'metric':<40}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>8}")
    for name, values in runs.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:<40}{statistics.median(values):>14.6g}{q1:>14.6g}"
              f"{q3:>14.6g}{quartile_spread(values):>9.3f}"
              f"{metric(name).bound:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
