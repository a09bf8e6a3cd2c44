"""Per-layer metrics of a traced run.

Times come from the spans :mod:`tracing` records around each layer's
entry points; counts come from the program's own ``MetricsRegistry``
where it keeps them, and otherwise from values the spans measured.
``<entry>_s`` metrics are the wall time spent inside that entry point
(outermost calls, children included); ``self_s`` is the layer's self
time, the part no deeper span covers.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Sequence, Tuple

from tracing import Span, SpanSummary

LAYERS = ("thriftlike", "scribe", "logmover", "hdfs", "mapreduce", "pig",
          "elephanttwin", "warehouse", "core", "oink")

#: (metric name, unit, better), in the order BENCHMARK.json lists them.
#: Counts of work done in a run's fixed time read better higher; counts
#: of waste, and times, read better lower.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("thriftlike.encode_calls", "count", "lower"),
    ("thriftlike.encode_s", "s", "lower"),
    ("thriftlike.decode_calls", "count", "lower"),
    ("thriftlike.decode_s", "s", "lower"),
    ("thriftlike.decodes_per_event", "ratio", "lower"),
    ("thriftlike.self_s", "s", "lower"),
    ("scribe.log_calls", "count", "higher"),
    ("scribe.log_s", "s", "lower"),
    ("scribe.flush_s", "s", "lower"),
    ("scribe.send_attempts_per_message", "ratio", "lower"),
    ("scribe.staging_files_written", "count", "higher"),
    ("scribe.peak_daemon_backlog", "count", "lower"),
    ("scribe.peak_aggregator_pending", "count", "lower"),
    ("scribe.dropped", "count", "lower"),
    ("scribe.qos_sampled", "count", "lower"),
    ("scribe.self_s", "s", "lower"),
    ("logmover.move_hour_calls", "count", "higher"),
    ("logmover.move_hour_s", "s", "lower"),
    ("logmover.messages_moved", "count", "higher"),
    ("logmover.bytes_moved", "bytes", "higher"),
    ("logmover.duplicates_skipped", "count", "lower"),
    ("logmover.poll_calls", "count", "higher"),
    ("logmover.batch_poll_s", "s", "lower"),
    ("logmover.seal_poll_s", "s", "lower"),
    ("logmover.batches_landed", "count", "higher"),
    ("logmover.hours_sealed", "count", "higher"),
    ("logmover.late_reopens", "count", "lower"),
    ("logmover.self_s", "s", "lower"),
    ("hdfs.create_calls", "count", "lower"),
    ("hdfs.create_s", "s", "lower"),
    ("hdfs.open_calls", "count", "lower"),
    ("hdfs.open_s", "s", "lower"),
    ("hdfs.rename_calls", "count", "lower"),
    ("hdfs.bytes_written", "bytes", "higher"),
    ("hdfs.bytes_read", "bytes", "higher"),
    ("hdfs.shard_skew", "ratio", "lower"),
    ("hdfs.self_s", "s", "lower"),
    ("mapreduce.plan_s", "s", "lower"),
    ("mapreduce.plan_share", "ratio", "lower"),
    ("mapreduce.read_split_s", "s", "lower"),
    ("mapreduce.map_phase_s", "s", "lower"),
    ("mapreduce.reduce_phase_s", "s", "lower"),
    ("mapreduce.jobs", "count", "lower"),
    ("mapreduce.map_tasks", "count", "lower"),
    ("mapreduce.input_bytes", "bytes", "lower"),
    ("mapreduce.shuffle_bytes", "bytes", "lower"),
    ("mapreduce.self_s", "s", "lower"),
    ("pig.execute_calls", "count", "higher"),
    ("pig.execute_self_s", "s", "lower"),
    ("elephanttwin.build_s", "s", "lower"),
    ("elephanttwin.splits_planned", "count", "higher"),
    ("elephanttwin.splits_skipped", "count", "higher"),
    ("elephanttwin.splits_unindexed", "count", "lower"),
    ("elephanttwin.scan_fraction", "ratio", "lower"),
    ("elephanttwin.self_s", "s", "lower"),
    ("warehouse.build_s", "s", "lower"),
    ("warehouse.bytes_decoded", "bytes", "lower"),
    ("warehouse.blocks_pruned", "count", "higher"),
    ("warehouse.block_prune_fraction", "ratio", "higher"),
    ("warehouse.bytes_decoded_per_row", "bytes/row", "lower"),
    ("warehouse.self_s", "s", "lower"),
    ("core.build_s", "s", "lower"),
    ("core.histogram_s", "s", "lower"),
    ("core.events_scanned", "count", "higher"),
    ("core.sessions_built", "count", "higher"),
    ("core.compression_factor", "ratio", "higher"),
    ("core.self_s", "s", "lower"),
    ("oink.rollup_s", "s", "lower"),
    ("oink.observe_poll_s", "s", "lower"),
    ("oink.deltas_applied", "count", "higher"),
    ("oink.sessions_reopened", "count", "lower"),
    ("oink.open_sessions_peak", "count", "lower"),
    ("oink.self_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(summary: SpanSummary, counters: Dict[str, float],
              peaks: Dict[str, float], events: int,
              busy_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric; 0 for a layer the workload never
    calls. ``busy_s`` is the traced run's measured wall time."""
    calls, time_s, total = summary.calls, summary.time_s, summary.total
    c = counters
    poll_s = {"batch": 0.0, "seal": 0.0}
    for duration, poll in summary.measured["logmover.poll"]:
        poll_s["seal" if poll["sealed"] else "batch"] += duration
    plans = summary.values("mapreduce.splits")
    indexed = [p for p in plans if p["fmt"] == "indexed"]
    planned = sum(p["splits"] + p["skipped"] for p in indexed)
    skipped = sum(p["skipped"] for p in indexed)
    col_blocks = sum(p.get("blocks", 0) for p in plans)
    col_rows = total("mapreduce.read_split")
    shards = [v for k, v in c.items() if k.startswith("shard:")]
    builds = summary.values("core.build")
    seq_bytes = sum(b["sequence_bytes"] for b in builds)
    out: Dict[str, float] = {
        "thriftlike.encode_calls": calls["thriftlike.encode"],
        "thriftlike.encode_s": time_s["thriftlike.encode"],
        "thriftlike.decode_calls": calls["thriftlike.decode"],
        "thriftlike.decode_s": time_s["thriftlike.decode"],
        "thriftlike.decodes_per_event": _ratio(calls["thriftlike.decode"],
                                               events),
        "scribe.log_calls": calls["scribe.log"],
        "scribe.log_s": time_s["scribe.log"],
        "scribe.flush_s": time_s["scribe.flush_all"],
        "scribe.send_attempts_per_message": _ratio(c["send_attempts"],
                                                   c["accepted"]),
        "scribe.staging_files_written": c[
            "scribe_aggregator_files_written_total"],
        "scribe.peak_daemon_backlog": peaks["daemon_backlog"],
        "scribe.peak_aggregator_pending": peaks["aggregator_pending"],
        "scribe.dropped": c["scribe_daemon_dropped_total"],
        "scribe.qos_sampled": c["qos_sampled_total"],
        "logmover.move_hour_calls": calls["logmover.move_hour"],
        "logmover.move_hour_s": time_s["logmover.move_hour"],
        "logmover.messages_moved": c["logmover_messages_moved_total"],
        "logmover.bytes_moved": c["logmover_bytes_moved_total"],
        "logmover.duplicates_skipped": c[
            "logmover_duplicates_skipped_total"],
        "logmover.poll_calls": calls["logmover.poll"],
        "logmover.batch_poll_s": poll_s["batch"],
        "logmover.seal_poll_s": poll_s["seal"],
        "logmover.batches_landed": c["streaming_batches_landed_total"],
        "logmover.hours_sealed": c["streaming_hours_sealed_total"],
        "logmover.late_reopens": c["streaming_late_reopens_total"],
        "hdfs.create_calls": calls["hdfs.create"],
        "hdfs.create_s": time_s["hdfs.create"],
        "hdfs.open_calls": calls["hdfs.open_bytes"],
        "hdfs.open_s": time_s["hdfs.open_bytes"],
        "hdfs.rename_calls": calls["hdfs.rename"],
        "hdfs.bytes_written": total("hdfs.create"),
        "hdfs.bytes_read": total("hdfs.open_bytes"),
        "hdfs.shard_skew": (max(shards) / (sum(shards) / len(shards))
                            if shards and sum(shards) else 1.0),
        "mapreduce.plan_s": time_s["mapreduce.splits"],
        "mapreduce.plan_share": _ratio(time_s["mapreduce.splits"], busy_s),
        "mapreduce.read_split_s": time_s["mapreduce.read_split"],
        "mapreduce.map_phase_s": time_s["mapreduce.map_phase"],
        "mapreduce.reduce_phase_s": time_s["mapreduce.reduce_phase"],
        "mapreduce.jobs": c["mapreduce_jobs_total"],
        "mapreduce.map_tasks": c["mapreduce_task_map_tasks_total"],
        "mapreduce.input_bytes": c["mapreduce_io_map_input_bytes_total"],
        "mapreduce.shuffle_bytes": c["mapreduce_io_shuffle_bytes_total"],
        "pig.execute_calls": calls["pig.execute"],
        "pig.execute_self_s": summary.layer_self_s["pig"],
        "elephanttwin.build_s": time_s["elephanttwin.build"],
        "elephanttwin.splits_planned": planned,
        "elephanttwin.splits_skipped": c["elephanttwin_splits_skipped_total"],
        "elephanttwin.splits_unindexed": c[
            "elephanttwin_splits_unindexed_total"],
        "elephanttwin.scan_fraction": _ratio(planned - skipped, planned),
        "warehouse.build_s": time_s["warehouse.build"],
        "warehouse.bytes_decoded": c["columnar_bytes_decoded_total"],
        "warehouse.blocks_pruned": c["columnar_blocks_pruned_total"],
        "warehouse.block_prune_fraction": _ratio(
            c["columnar_blocks_pruned_total"],
            c["columnar_blocks_pruned_total"] + col_blocks),
        "warehouse.bytes_decoded_per_row": _ratio(
            c["columnar_bytes_decoded_total"], col_rows),
        "core.build_s": time_s["core.build"],
        "core.histogram_s": time_s["core.histogram"],
        "core.events_scanned": sum(b["events"] for b in builds),
        "core.sessions_built": sum(b["sessions"] for b in builds),
        "core.compression_factor": _ratio(
            sum(b["raw_bytes"] for b in builds), seq_bytes),
        "oink.rollup_s": time_s["oink.rollup"],
        "oink.observe_poll_s": time_s["oink.observe_poll"],
        "oink.deltas_applied": c["rollup_deltas_applied_total"],
        "oink.sessions_reopened": c["incremental_sessions_reopened_total"],
        "oink.open_sessions_peak": peaks["open_sessions"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary.layer_self_s[layer]
    missing = [name for name, __, __ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: float(out[name]) for name, __, __ in PER_LAYER}


def accounting(summary: SpanSummary, wall_s: float) -> Dict[str, Any]:
    """Where the traced run's measured wall time went: each layer's self
    time, the benchmark's own operation code, and the remainder outside
    any operation (oracles and input handling between operations)."""
    layers = {layer: summary.layer_self_s[layer] for layer in LAYERS}
    bench = summary.layer_self_s["bench"]
    in_ops = summary.root_s
    return {
        "wall_s": wall_s,
        "layer_self_s": layers,
        "bench_self_s": bench,
        "outside_operations_s": wall_s - in_ops,
        "attributed_share_of_operations": _ratio(sum(layers.values()),
                                                 in_ops),
    }


def by_kind(summary_of_kind: Dict[str, SpanSummary]) -> Dict[str, Any]:
    """Plan share and layer self time per operation kind (query type)."""
    out: Dict[str, Any] = {}
    for kind, summary in summary_of_kind.items():
        out[kind] = {
            "operations_s": summary.root_s,
            "plan_s": summary.time_s["mapreduce.splits"],
            "plan_share": _ratio(summary.time_s["mapreduce.splits"],
                                 summary.root_s),
            "layer_self_s": {layer: summary.layer_self_s[layer]
                             for layer in LAYERS
                             if summary.layer_self_s[layer]},
        }
    return out


def decode_calls_by_entry(spans: Sequence[Span]) -> Dict[str, int]:
    """Thrift decode calls per entry point the operation called (the
    span just below the operation's root), e.g. ``core.build``."""
    by_id = {span.sid: span for span in spans}
    out: Counter = Counter()
    for span in spans:
        if span.name != "thriftlike.decode":
            continue
        entry = span
        while entry.parent in by_id and by_id[entry.parent].parent:
            entry = by_id[entry.parent]
        out[entry.name] += 1
    return dict(out.most_common())
