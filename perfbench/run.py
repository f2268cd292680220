"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads: ``train`` and ``classify_interactive`` are gated (listed in
``BENCHMARK.json``); ``classify_bulk`` runs the same way but is not gated
(see ``perfbench/NOTES.md``).  With ``--trace 0`` the
run reports the end-to-end metrics; with ``--trace 1`` a separate traced
run reports the per-layer metrics.  Human-readable lines (every metric
with its unit and sample count, the inputs' measured properties) come
first; the last line of standard output is the JSON result.  The exit
code is 1 when an output check fails and 2 when there is no program to
benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys

from build import ROOT, Inputs, ProgramMissing
from stats import describe

WORKLOADS = ("train", "classify_bulk", "classify_interactive")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        inputs = Inputs().build()
    except ProgramMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    try:
        if args.workload == "train":
            import train

            result = train.run(inputs, args.seconds, bool(args.trace))
        else:
            import serving

            result = serving.run(args.workload, inputs, args.seed,
                                 args.seconds, bool(args.trace))
    finally:
        inputs.clean()

    spec = _spec()
    kind = "per_layer" if args.trace else "end_to_end"
    measured = result[kind]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for line in result["report"]:
        print("  " + line)
    print(f"  error_rate: {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} failed)")
    for name, samples in result["timings"].items():
        summary = describe(samples)
        stats = ", ".join(f"{k} {_format(v)}" for k, v in summary.items()
                          if k != "n")
        print(f"  {name}: n={summary['n']}  {stats}")
    for name, value in result["inputs"].items():
        print(f"  input {name}: {_format(value)}")
    metrics = {}
    samples = result["samples"]
    for metric in spec[kind]:
        name = metric["name"]
        value = float(measured.get(name, 0.0))
        metrics[name] = {"value": value, "unit": metric["unit"]}
        count = f"  (n={samples[name]:g})" if name in samples else ""
        print(f"  {name}: {_format(value)} {metric['unit']}{count}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
