#!/usr/bin/env python3
"""Run every workload untraced and traced; print one table and write the
traced report.

    python3 perfbench/report.py

For each workload this prints every end-to-end metric by name and unit,
the workload's own named figures, the tracing overhead, and the traced
wall-time accounting. The overhead is the median, over :data:`PAIRS`
untraced/traced pairs run back to back in alternating order, of traced
over untraced minus one; a single pair on a busy host mostly measures
the host. The report is written to ``perfbench/seed_report.json``.
Exits with 1 if any run failed its oracles.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


#: The seed the report is made with, and the untraced/traced pairs per
#: workload whose median gives the tracing overhead.
SEED = 1
PAIRS = 3


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    path = os.path.join(HERE, "out",
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(path):
        os.remove(path)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if not os.path.exists(path):
        raise RuntimeError(f"{workload} trace {trace} produced no record:\n"
                           f"{proc.stdout}{proc.stderr}")
    with open(path) as handle:
        return json.load(handle)


def overhead(pairs) -> dict:
    """Per end-to-end metric, the median over pairs of traced over
    untraced, minus one."""
    names = pairs[0][0]["end_to_end"]
    return {name: statistics.median(
                traced["end_to_end"][name] / plain["end_to_end"][name] - 1.0
                for plain, traced in pairs)
            for name in names}


def main() -> int:
    sys.path.insert(0, HERE)
    from run import END_TO_END
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]

    report = {"seed": SEED, "run_seconds": seconds,
              "overhead_pairs": PAIRS, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        pairs = []
        for i in range(PAIRS):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            runs = {trace: run_once(workload, SEED, seconds, trace)
                    for trace in order}
            pairs.append((runs[0], runs[1]))
        plain, traced = pairs[0]
        ok = ok and all(p["correct"] and t["correct"] for p, t in pairs)
        report.setdefault("provenance", plain["provenance"])
        entry = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "error_rate": plain["error_rate"],
            "sizes": plain["provenance"]["sizes"],
            "end_to_end": plain["end_to_end"],
            "latency": plain["latency"],
            "workload_metrics": plain["workload_metrics"],
            "tracing_overhead": overhead(pairs),
            "traced": {key: traced[key] for key in (
                "end_to_end", "per_layer", "accounting", "by_kind",
                "decode_calls_by_entry", "spans")},
        }
        report["workloads"][workload] = entry

        print(f"== {workload} (seed {SEED}, {seconds:g} s): "
              f"{plain['attempted']} operations, {plain['failed']} failed")
        for name, unit in END_TO_END.items():
            print(f"  {name:18s} {plain['end_to_end'][name]:12.5g} {unit:4s}"
                  f"  traced {traced['end_to_end'][name]:12.5g}"
                  f"  overhead {entry['tracing_overhead'].get(name, 0):+.1%}")
        for name, value in plain["workload_metrics"].items():
            print(f"  {name} = {value}")
        acct = traced["accounting"]
        print(f"  traced wall {acct['wall_s']:.2f} s = layers "
              f"{sum(acct['layer_self_s'].values()):.2f} s + benchmark code "
              f"{acct['bench_self_s']:.2f} s + outside operations "
              f"{acct['outside_operations_s']:.2f} s")
        for layer, seconds_self in sorted(acct["layer_self_s"].items(),
                                          key=lambda kv: -kv[1]):
            if seconds_self:
                print(f"    {layer:12s} self {seconds_self:8.3f} s")
        for kind, info in sorted(traced["by_kind"].items()):
            print(f"    {kind:15s} operations {info['operations_s']:8.3f} s,"
                  f" plan share {info['plan_share']:.1%}")
        print(f"  decodes per event "
              f"{traced['per_layer']['thriftlike.decodes_per_event']:.3f}, "
              f"decode calls by entry point "
              f"{traced['decode_calls_by_entry']}")

    path = os.path.join(HERE, "seed_report.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"report: {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
