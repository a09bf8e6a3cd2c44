"""The benchmark's workloads, by the name ``--workload`` takes."""

from __future__ import annotations

import importlib

#: Workload name -> class, in ``workloads.<name>``.
WORKLOADS = {
    "scribe_day": "ScribeDay",
    "bulk_ingest": "BulkIngest",
    "query_mix": "QueryMix",
    "streaming_hours": "StreamingHours",
}


def load(name: str):
    """The workload class called ``name``."""
    module = importlib.import_module(f"workloads.{name}")
    return getattr(module, WORKLOADS[name])
