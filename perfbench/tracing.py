"""Spans recorded from outside the program, around its public entry points.

A traced run installs timing wrappers (:func:`install`) on the entry
points in :data:`ENTRY_POINTS`; every call becomes a span with a name
(``<layer>.<entry>``), start, end, parent span and the trace id of the
benchmark operation it served (one day, query, slice or poll). Spans stay
in memory and are written out when the run ends.

A layer's *self time* is its spans' durations minus their child spans'
durations; summed over layers plus the benchmark's
own operation spans, self times account for the traced wall time.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import (Any, Callable, Dict, List, NamedTuple,
                    Optional, Sequence, Tuple)

#: Layer name of the benchmark's own operation spans (the roots).
BENCH_LAYER = "bench"


class Span(NamedTuple):
    sid: int
    parent: int          # 0 for a root span
    trace: Optional[str]
    name: str            # "<layer>.<entry>"
    start_ns: int
    end_ns: int
    value: Any           # what the call returned, measured (or None)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """In-memory span store with one stack of open spans.

    The workloads run on one thread (the serial MapReduce backend, no
    pools), so spans nest strictly and one stack suffices.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._stack: List[int] = []
        self.trace: Optional[str] = None

    @contextmanager
    def operation(self, name: str, trace: str):
        """A root span for one benchmark operation; calls made inside it
        share its trace id."""
        previous, self.trace = self.trace, trace
        stack = self._stack
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, parent, trace,
                                   f"{BENCH_LAYER}.{name}", start, end, None))
            self.trace = previous

    def wrap(self, fn: Callable, name: str,
             measure: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``measure(args, kwargs,
        result)`` turns a successful call into the span's value."""
        spans, ids, stack = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            value = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append(Span(sid, parent, self.trace, name, start, end,
                                  value))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                value = span.value
                if not isinstance(value, (int, float, dict, type(None))):
                    value = repr(value)
                handle.write(json.dumps(
                    [span.sid, span.parent, span.trace, span.name,
                     span.start_ns, span.end_ns, value]) + "\n")


# -- measurement of return values -------------------------------------------

def _data_len(args, kwargs, result) -> int:
    # HDFS.create(self, path, data, ...)
    return len(args[2] if len(args) > 2 else kwargs["data"])


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _split_plan(kind: str) -> Callable:
    def measure(args, kwargs, result) -> Dict[str, Any]:
        fmt = args[0]
        out = {"fmt": kind, "splits": len(result)}
        if kind == "indexed":
            out["skipped"] = fmt.skipped_splits
        elif kind == "columnar":
            out["blocks"] = fmt.columnar_splits
        return out
    return measure


def _columnar_rows(args, kwargs, result) -> int:
    # Raw fallback splits are counted by the base format's own span.
    return len(result) if type(args[1]).__name__ == "ColumnarBlockSplit" else 0


def _build_result(args, kwargs, result) -> Dict[str, Any]:
    return {"events": result.events_scanned,
            "sessions": result.sessions_built,
            "raw_bytes": result.raw_bytes,
            "sequence_bytes": result.sequence_bytes}


def _poll_result(args, kwargs, result) -> Dict[str, int]:
    return {"batches": len(result.batches), "sealed": len(result.sealed)}


#: (module, class or None for a module function, attribute, span name,
#: measure). Classes listed under ``mapreduce`` are every public
#: InputFormat defining the entry point itself, and the serial backend,
#: the program's default and the only one the workloads use.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str,
                          Optional[Callable]], ...] = (
    ("repro.thriftlike.struct", "ThriftStruct", "to_bytes",
     "thriftlike.encode", None),
    ("repro.thriftlike.struct", "ThriftStruct", "from_bytes",
     "thriftlike.decode", None),
    ("repro.scribe.daemon", "ScribeDaemon", "log", "scribe.log", None),
    ("repro.scribe.cluster", "ScribeDeployment", "flush_all",
     "scribe.flush_all", None),
    ("repro.logmover.mover", "LogMover", "move_hour",
     "logmover.move_hour", None),
    ("repro.logmover.streaming", "StreamingMover", "poll",
     "logmover.poll", _poll_result),
    ("repro.hdfs.namenode", "HDFS", "create", "hdfs.create", _data_len),
    ("repro.hdfs.namenode", "HDFS", "open_bytes", "hdfs.open_bytes",
     _result_len),
    ("repro.hdfs.namenode", "HDFS", "rename", "hdfs.rename", None),
    ("repro.mapreduce.inputformats", "FileInputFormat", "splits",
     "mapreduce.splits", _split_plan("file")),
    ("repro.mapreduce.inputformats", "FileInputFormat", "read_split",
     "mapreduce.read_split", None),
    ("repro.mapreduce.inputformats", "InMemoryInputFormat", "splits",
     "mapreduce.splits", _split_plan("memory")),
    ("repro.mapreduce.inputformats", "InMemoryInputFormat", "read_split",
     "mapreduce.read_split", None),
    ("repro.mapreduce.inputformats", "ColumnarInputFormat", "splits",
     "mapreduce.splits", _split_plan("columnar")),
    ("repro.mapreduce.inputformats", "ColumnarInputFormat", "read_split",
     "mapreduce.read_split", _columnar_rows),
    ("repro.elephanttwin.inputformat", "IndexedInputFormat", "splits",
     "mapreduce.splits", _split_plan("indexed")),
    ("repro.elephanttwin.inputformat", "IndexedInputFormat", "read_split",
     "mapreduce.read_split", None),
    ("repro.mapreduce.backends", "SerialBackend", "run_map_phase",
     "mapreduce.map_phase", None),
    ("repro.mapreduce.backends", "SerialBackend", "run_reduce_phase",
     "mapreduce.reduce_phase", None),
    ("repro.pig.executor", "PlanExecutor", "execute", "pig.execute", None),
    ("repro.core.builder", "SessionSequenceBuilder", "run", "core.build",
     _build_result),
    ("repro.core.builder", "SessionSequenceBuilder", "build_histogram",
     "core.histogram", None),
    ("repro.oink.rollups", "RollupJob", "run", "oink.rollup", None),
    ("repro.oink.incremental", "IncrementalPipeline", "observe_poll",
     "oink.observe_poll", None),
    ("repro.elephanttwin.buildjob", None, "build_day_indexes",
     "elephanttwin.build", None),
    ("repro.warehouse.segment", None, "build_day_segments",
     "warehouse.build", None),
)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every entry point; returns a function restoring them.

    An attribute inherited rather than defined by the listed class is
    wrapped once, on the class that defines it.
    """
    restore: List[Tuple[Any, str, Any]] = []
    done = set()
    for module_name, class_name, attr, name, measure in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        if class_name is not None:
            owner = next(k for k in owner.__mro__ if attr in k.__dict__)
        if (owner, attr) in done:
            continue
        done.add((owner, attr))
        raw = (owner.__dict__[attr] if class_name is not None
               else getattr(owner, attr))
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(recorder.wrap(raw.__func__, name,
                                                     measure))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(recorder.wrap(raw.__func__, name, measure))
        else:
            wrapped = recorder.wrap(raw, name, measure)
        restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)

    return uninstall


# -- analysis -----------------------------------------------------------------

def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> self time in ns: its duration minus its children's
    durations (spans nest strictly on the one thread that runs)."""
    children_ns: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent:
            children_ns[span.parent] += span.duration_ns
    return {span.sid: span.duration_ns - children_ns[span.sid]
            for span in spans}


def outermost(spans: Sequence[Span]) -> List[Span]:
    """Spans with no ancestor of the same name: summing their durations
    counts a recursive entry point's time once."""
    by_id = {span.sid: span for span in spans}
    out = []
    for span in spans:
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(span)
    return out


def trace_kind(trace: Optional[str]) -> str:
    """Operation kind of a trace id ``"<kind>#<n>"``."""
    return (trace or "").split("#", 1)[0]


class SpanSummary:
    """Per-layer self time and per-entry calls/time over a span set."""

    def __init__(self, spans: Sequence[Span]) -> None:
        selfs = self_times(spans)
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        for span in spans:
            self.layer_self_s[span.layer] += selfs[span.sid] / 1e9
        self.calls: Dict[str, int] = defaultdict(int)
        self.time_s: Dict[str, float] = defaultdict(float)
        for span in outermost(spans):
            self.calls[span.name] += 1
            self.time_s[span.name] += span.duration_ns / 1e9
        # Values come from every span: a nested call (an indexed plan
        # inside a columnar plan) measures work of its own.
        self.measured: Dict[str, List[Tuple[float, Any]]] = defaultdict(list)
        for span in spans:
            if span.value is not None:
                self.measured[span.name].append(
                    (span.duration_ns / 1e9, span.value))
        self.root_s = sum(span.duration_ns for span in spans
                          if not span.parent) / 1e9

    def values(self, name: str) -> List[Any]:
        """The measured values of every ``name`` span."""
        return [value for __, value in self.measured[name]]

    def total(self, name: str) -> float:
        """Sum of the numeric measured values of ``name``."""
        return sum(v for v in self.values(name) if isinstance(v, (int, float)))
