#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

::

    python3 perfbench/spread.py --workload serve-zipf-open --runs 5

Spread is the inter-quartile range over the median, the figure the
benchmark's bounds (``BENCHMARK.json``) are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from harness import spread


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode}, {time.perf_counter() - t0:.1f} s, "
              f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        vals_sorted = sorted(vals)
        mid = vals_sorted[len(vals) // 2]
        s = spread(vals) if len(vals) >= 2 else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if s < bound / 3 else "  WIDE")
        print(f"{name:40s} median {mid:12.5g}  spread {s:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
        print("    " + " ".join(f"{v:.5g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
