#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload query_mix --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for each end-to-end metric the median and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), beside the
bound ``BENCHMARK.json`` allows.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """(median, interquartile range over median)."""
    median = statistics.median(values)
    q1, __, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or out.returncode:
            print(f"seed {seed}: failed\n{out.stdout}{out.stderr}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
            flush=True)
    for name, series in values.items():
        median, share = spread(series)
        bound = bounds.get(name)
        mark = "" if bound is None else (
            f" bound {bound:.2f} ({'ok' if share < bound / 3 else 'WIDE'})")
        print(f"{name}: median {median:.6g}, spread {share:.4f}{mark}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
