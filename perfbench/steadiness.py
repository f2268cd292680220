"""Run one workload on several seeds and print each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py classify_bulk --seeds 1-10 --seconds 30

For every end-to-end metric it prints the ten values' median and their
spread, (Q3 - Q1) / median as ``statistics.quantiles(values, n=4)``
gives the quartiles, beside the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    spec = json.loads(Path("BENCHMARK.json").read_text())
    values = {metric["name"]: [] for metric in spec["end_to_end"]}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {out.returncode}, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, "
              + ", ".join(f"{name} {m['value']:.6g}"
                          for name, m in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        spread = quartile_spread(values[name])
        print(f"{args.workload} {name}: median "
              f"{statistics.median(values[name]):.6g} {metric['unit']}, "
              f"spread {spread:.4f} (bound {bound}, a third {bound / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
