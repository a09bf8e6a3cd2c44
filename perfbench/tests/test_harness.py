"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Run from the repository root. The pure tests need nothing but the
harness; the end-to-end tests start ``perfbench/run.py`` in
subprocesses and take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from harness import (Ledger, SpeedGauge, best_of,  # noqa: E402
                     latency_summary, percentile, repeat_counts,
                     samples_beyond)
from tracing import (Span, SpanRecorder, SpanSummary, outermost,  # noqa: E402
                     self_times)

# -- percentiles and the sample-count rule ------------------------------------

def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.95) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2  # order of input is irrelevant
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)


def test_tail_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 0.95) == 5
    assert samples_beyond(200, 0.95) == 10
    assert samples_beyond(0, 0.95) == 0
    enough = latency_summary([float(i) for i in range(200)])
    assert enough["samples"] == 200
    assert enough["mean_ms"] == 99.5
    assert enough["samples_beyond_tail"] == 10
    assert enough["tail_supported"] is True
    assert enough["p95_ms"] == 189.0
    short = latency_summary([float(i) for i in range(199)])
    assert short["samples_beyond_tail"] == 9
    assert short["tail_supported"] is False


# -- fastest repeats -----------------------------------------------------------

def test_each_operation_counts_at_its_fastest_repeat():
    repeats = {"a": [3.0, 1.0, 2.0], "b": [5.0], "c": [4.0, 4.5]}
    assert best_of(repeats) == {"a": 1.0, "b": 5.0, "c": 4.0}
    assert best_of({"never": []}) == {}
    assert repeat_counts(repeats) == {"operations": 3, "min_repeats": 1,
                                      "median_repeats": 2}


def test_throughput_is_work_over_the_fastest_busy_times():
    from workloads.common import Run

    run = Run()
    run.busy("day0", 2.0, 100)
    run.busy("day0", 1.0, 100)
    run.busy("day1", 3.0, 200)
    assert run.throughput() == pytest.approx(300 / 4.0)
    with pytest.raises(ValueError):
        run.busy("day0", 1.0, 99)  # a repeat must do the same work


def test_speed_gauge_gives_times_at_the_nominal_speed(monkeypatch):
    import harness

    now = [0.0]

    def reference_work():  # the host runs at half the nominal speed
        now[0] += 2 * SpeedGauge.NOMINAL_S

    monkeypatch.setattr(harness, "reference_work", reference_work)
    gauge = SpeedGauge(clock=lambda: now[0])
    gauge.sample()
    gauge.sample()  # the next batch is not due yet
    assert len(gauge.times) == SpeedGauge.BATCH
    now[0] += SpeedGauge.INTERVAL_S
    gauge.sample()
    assert len(gauge.times) == 2 * SpeedGauge.BATCH
    assert gauge.scale() == pytest.approx(0.5)


# -- self time -----------------------------------------------------------------

def _span(sid, parent, name, start, end):
    return Span(sid, parent, "op#1", name, start, end, None)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, 0, "bench.day", 0, 100),
        _span(2, 1, "core.build", 10, 50),
        _span(3, 2, "thriftlike.decode", 20, 30),
        _span(4, 1, "hdfs.create", 60, 70),
    ]
    assert self_times(spans) == {1: 50, 2: 30, 3: 10, 4: 10}
    summary = SpanSummary(spans)
    assert summary.layer_self_s["core"] == pytest.approx(30e-9)
    assert sum(summary.layer_self_s.values()) == pytest.approx(100e-9)
    assert summary.root_s == pytest.approx(100e-9)


def test_self_time_of_recursive_spans_counts_time_once():
    spans = [
        _span(1, 0, "pig.execute", 0, 100),
        _span(2, 1, "pig.execute", 10, 90),
        _span(3, 2, "pig.execute", 20, 30),
    ]
    assert self_times(spans) == {1: 20, 2: 70, 3: 10}
    assert [s.sid for s in outermost(spans)] == [1]
    summary = SpanSummary(spans)
    assert summary.calls["pig.execute"] == 1
    assert summary.time_s["pig.execute"] == pytest.approx(100e-9)
    assert summary.layer_self_s["pig"] == pytest.approx(100e-9)


def test_recorder_nests_real_calls():
    recorder = SpanRecorder()

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = recorder.wrap(fact, "core.fact",
                           lambda args, kwargs, result: result)
    with recorder.operation("op", "op#1"):
        assert traced(4) == 24
    spans = recorder.spans
    assert len(spans) == 5
    assert all(s.trace == "op#1" for s in spans)
    by_id = {s.sid: s for s in spans}
    for span in spans:
        if span.parent:
            parent = by_id[span.parent]
            assert parent.start_ns <= span.start_ns <= span.end_ns \
                <= parent.end_ns
    summary = SpanSummary(spans)
    assert summary.calls["core.fact"] == 1
    # Self times partition the root span exactly.
    root = next(s for s in spans if not s.parent)
    assert sum(self_times(spans).values()) == root.duration_ns
    assert sorted(summary.values("core.fact")) == [1, 2, 6, 24]


# -- error-rate accounting ------------------------------------------------------

def test_ledger_counts_failed_operations():
    ledger = Ledger()
    for problems in ([], [], ["answer 3, oracle 4"], []):
        ledger.record(problems)
    assert (ledger.attempted, ledger.failed) == (4, 1)
    assert ledger.error_rate == 0.25
    assert ledger.failures == ["op 3: answer 3, oracle 4"]
    assert Ledger().error_rate == 0.0


class _Flaky:
    """A workload whose every third operation raises."""

    name = "flaky"
    setup_reps = 2
    latency_op = throughput_unit = "test"

    def __init__(self, seed):
        self.n = 0

    def setup(self):
        return {}

    def sizes(self, state):
        return {}

    def step(self, state, run):
        self.n += 1
        if self.n % 3 == 0:
            raise RuntimeError("boom")
        run.latency(self.n, 1.0)
        run.busy(self.n, 0.001, 1)
        run.ledger.record([])

    def finish(self, state, run):
        pass

    @staticmethod
    def details(run):
        return {}


def test_raised_operations_count_as_failed(monkeypatch, capsys):
    import run as bench_run
    import workloads

    monkeypatch.setitem(workloads.WORKLOADS, "flaky", "_Flaky")
    monkeypatch.setattr(workloads, "load", lambda name: _Flaky)
    args = bench_run.parse_args(["--workload", "flaky", "--seed", "1",
                                 "--seconds", "60", "--operations", "9"])
    record = bench_run.measure(args)
    assert (record["attempted"], record["failed"]) == (9, 3)
    assert record["error_rate"] == pytest.approx(1 / 3)
    assert record["correct"] is False
    result = bench_run.report(record, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(bench_run.END_TO_END)


def test_query_mix_weighs_each_query_type_equally():
    from workloads.common import Run
    from workloads.query_mix import KINDS, QueryMix

    def gated(sequence_ms):
        run = Run()
        for kind in KINDS:
            ms = sequence_ms if kind == "sequence_query" else 70.0
            for index in range(4):
                run.latency((kind, index), ms)
                run.latency((kind, index), 2 * ms)  # a slower repeat
        return QueryMix.gated(run)

    # A 10x slower fast type moves both gated figures by 10 ** (1/4).
    base, slow = gated(3.0), gated(30.0)
    assert slow["latency_mean_ms"] / base["latency_mean_ms"] == \
        pytest.approx(10 ** 0.25)
    assert base["throughput_per_s"] / slow["throughput_per_s"] == \
        pytest.approx(10 ** 0.25)


# -- the contract ---------------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    import run as bench_run
    from layers import PER_LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(bench_run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(PER_LAYER)
    from workloads import WORKLOADS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    with open(os.path.join(BENCH, "metric_map.json")) as handle:
        mapping = json.load(handle)
    layers = {name.split(".")[0] for name, __, __ in PER_LAYER}
    assert set(mapping["layers"]) == layers
    for layer in mapping["layers"].values():
        for pairing in layer["should_move"] + layer["predicted_flat"]:
            assert pairing["workload"] in WORKLOADS
            assert pairing.get("metric", "setup_s") in bench_run.END_TO_END


def test_refuses_to_run_without_the_program(tmp_path):
    bare = str(tmp_path)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scribe_day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


# -- exact repetition of counts for a fixed seed --------------------------------

#: workload -> (operations, per-layer counts, workload figures) that must
#: repeat exactly when the same seed runs the same number of operations.
REPEATABLE = {
    "scribe_day": (1, ("thriftlike.decode_calls", "mapreduce.map_tasks"),
                   ()),
    "query_mix": (16, ("thriftlike.decode_calls", "mapreduce.map_tasks",
                       "elephanttwin.splits_skipped"), ()),
    "streaming_hours": (36, ("logmover.batches_landed",
                             "thriftlike.decode_calls"),
                        ("freshness_p95_ms",)),
}


def _traced(workload, operations):
    """One traced run's record, read before the next run replaces it."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "120", "--trace", "1",
         "--operations", str(operations)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    path = os.path.join(BENCH, "out", f"result-{workload}-seed7-trace1.json")
    with open(path) as f:
        return json.load(f)


@pytest.mark.parametrize("workload", sorted(REPEATABLE))
def test_counts_repeat_exactly_for_a_seed(workload):
    operations, counts, figures = REPEATABLE[workload]
    first = _traced(workload, operations)
    second = _traced(workload, operations)
    for name in counts:
        assert first["per_layer"][name] > 0, name
        assert first["per_layer"][name] == second["per_layer"][name], name
    for name in figures:
        assert first["workload_metrics"][name] > 0, name
        assert first["workload_metrics"][name] == \
            second["workload_metrics"][name], name
