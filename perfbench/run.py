#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scribe_day --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The program is imported from ``src/``;
the workload's inputs are generated from ``--seed``. The run sets up
(several times, half before the measured loop and half after it,
reporting the median), repeats the workload's operations for
``--seconds`` of wall time on one process, checks every output against
an oracle, and prints each metric by name and unit. Times and rates
count each operation at its fastest repeat and are given at the
nominal host speed (``harness.SpeedGauge``). The
last line of standard output is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.
A detailed record (provenance, each workload's named figures, spans) is
written under ``perfbench/out/``. The exit code is 1 when any output
was wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import traceback
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: End-to-end metrics: name -> unit. Their meaning per workload is in
#: ``perfbench/README.md`` and each workload's ``latency_op`` and
#: ``throughput_unit``. Each operation counts at its fastest repeat in
#: the run (:func:`harness.best_of`); the figures over every repeat are
#: recorded beside them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_mean_ms": "ms",
    "latency_p95_ms": "ms",
}
#: The end-to-end times and rates, which are given at the nominal host
#: speed (:class:`harness.SpeedGauge`).
TIMES = ("setup_s", "latency_mean_ms", "latency_p95_ms")
RATES = ("throughput_per_s",)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--operations", type=int,
                        help="stop after this many operations instead of "
                             "after --seconds (exact, repeatable counts)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(args) -> Dict[str, Any]:
    """Set up, run and check one workload; returns the full record."""
    from harness import (SpeedGauge, best_of, latency_summary, peak_rss_mb,
                         provenance, repeat_counts, timed_setup)
    from layers import (PER_LAYER, accounting, by_kind, decode_calls_by_entry,
                        per_layer)
    from tracing import SpanRecorder, SpanSummary, install, trace_kind
    from workloads import WORKLOADS, load
    from workloads.common import Run

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one "
                         f"of {sorted(WORKLOADS)}")
    workload = load(args.workload)(args.seed)
    recorder = SpanRecorder() if args.trace else None
    uninstall = install(recorder) if recorder is not None else None
    try:
        def traced_setup():
            if recorder is None:
                return workload.setup()
            with recorder.operation("setup", "setup#0"):
                return workload.setup()

        # Half the set-ups run before the measured loop and half after
        # it, so their median spans the run rather than its first seconds.
        before = (workload.setup_reps + 1) // 2
        gauge = SpeedGauge()
        setup_times, state = timed_setup(traced_setup, before, gauge.sample)
        gc.collect()
        run = Run(recorder)
        started = time.perf_counter()
        deadline = started + args.seconds
        while (run.ledger.attempted < args.operations if args.operations
               else time.perf_counter() < deadline):
            try:
                workload.step(state, run)
            except Exception as exc:  # one failed operation, keep going
                traceback.print_exc(file=sys.stderr)
                run.ledger.record([f"{type(exc).__name__}: {exc}"])
            gauge.sample()
        workload.finish(state, run)
        wall_s = time.perf_counter() - started
        peak_mb = peak_rss_mb()
        sizes = workload.sizes(state)
        state = None
        gc.collect()
        setup_times += timed_setup(traced_setup, workload.setup_reps - before,
                                   gauge.sample)[0]
    finally:
        if uninstall is not None:
            uninstall()

    if not run.latencies_ms or not run.busy_s:
        raise RuntimeError("the run completed no operation")
    # A workload may build its operations' fastest times from timed
    # parts (scribe_day does).
    best_latencies = getattr(workload, "best_latencies", None)
    latency = latency_summary(
        best_latencies(run) if best_latencies is not None
        else list(best_of(run.latencies_ms).values()))
    e2e = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_mb,
        "throughput_per_s": run.throughput(),
        "latency_mean_ms": latency["mean_ms"],
        "latency_p95_ms": latency["p95_ms"],
    }
    # A workload may weigh its operation kinds itself (query_mix does).
    gated = getattr(workload, "gated", None)
    if gated is not None:
        e2e.update(gated(run))
    scale = gauge.scale()
    at_nominal = dict(e2e)
    for name in TIMES:
        at_nominal[name] *= scale
    for name in RATES:
        at_nominal[name] /= scale
    record: Dict[str, Any] = {
        "provenance": provenance(ROOT, args.seed, args.workload,
                                 bool(args.trace), args.seconds, sizes),
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "error_rate": run.ledger.error_rate,
        "failures": run.ledger.failures,
        "end_to_end": at_nominal,
        "end_to_end_as_measured": e2e,
        "speed": {"reference_s": gauge.reference_s(), "scale": scale,
                  "reference_runs": len(gauge.times)},
        "latency_op": workload.latency_op,
        "throughput_unit": workload.throughput_unit,
        "latency": latency,
        "latency_all_repeats": latency_summary(
            [ms for times in run.latencies_ms.values() for ms in times]),
        "repeats": {"latency": repeat_counts(run.latencies_ms),
                    "busy": repeat_counts(run.busy_s)},
        "workload_metrics": workload.details(run),
        "counters": dict(run.counters),
        "counters_by_kind": {kind: dict(counts)
                             for kind, counts in run.by_kind.items()},
        "setup_times_s": setup_times,
        "measured_wall_s": wall_s,
        "busy_s": sum(map(sum, run.busy_s.values())),
    }
    if recorder is not None:
        # Oracles run between operations; their calls into the program
        # carry no trace id and stay out of the per-layer figures.
        measured = [s for s in recorder.spans
                    if s.trace is not None and trace_kind(s.trace) != "setup"]
        summary = SpanSummary(measured)
        record["per_layer"] = per_layer(summary, run.counters, run.peaks,
                                        run.events, summary.root_s)
        record["per_layer_units"] = {name: unit
                                     for name, unit, __ in PER_LAYER}
        record["accounting"] = accounting(summary, wall_s)
        record["decode_calls_by_entry"] = decode_calls_by_entry(measured)
        kinds: Dict[str, list] = {}
        for span in recorder.spans:
            kinds.setdefault(trace_kind(span.trace) or "oracles",
                             []).append(span)
        record["by_kind"] = by_kind({kind: SpanSummary(spans)
                                     for kind, spans in kinds.items()})
        record["spans"] = len(recorder.spans)
        os.makedirs(OUT, exist_ok=True)
        recorder.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    return record


def report(record: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Print the run by metric name and unit; return the result line."""
    from layers import PER_LAYER

    prov = record["provenance"]
    print(f"workload {prov['workload']} seed {prov['seed']} "
          f"trace {int(trace)}: {record['attempted']} operations, "
          f"{record['failed']} failed (error_rate {record['error_rate']:g})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {record['end_to_end'][name]:.6g} {unit}")
    latency = record["latency"]
    repeats = record["repeats"]["latency"]
    print(f"  latency op: {record['latency_op']} "
          f"({latency['samples']} operations, each at its fastest of "
          f"{repeats['min_repeats']} or more repeats; "
          f"{latency['samples_beyond_tail']} beyond p95)")
    print(f"  latency_p50_ms = {latency['p50_ms']:.6g} ms")
    print(f"  throughput unit: {record['throughput_unit']}")
    for name, value in record["workload_metrics"].items():
        print(f"  {name} = {value}")
    if trace:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit, __ in PER_LAYER}
        acct = record["accounting"]
        print(f"  traced wall {acct['wall_s']:.3f} s: layers "
              f"{sum(acct['layer_self_s'].values()):.3f} s, benchmark code "
              f"{acct['bench_self_s']:.3f} s, outside operations "
              f"{acct['outside_operations_s']:.3f} s")
        for name, unit, __ in PER_LAYER:
            print(f"  {name} = {record['per_layer'][name]:.6g} {unit}")
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    record = measure(args)
    result = report(record, bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
