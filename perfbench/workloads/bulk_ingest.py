"""``bulk_ingest``: opaque application logs at volume, landed on shards.

The traffic is ``benchmarks/bench_e23_scaleout.py``'s ingest leg at its
100x scale: six hosts in two datacenters each log 400 entries per
four-minute slice, round-robin over eight categories spanning every QoS
tier, each payload the opaque nine bytes ``e%08d`` of a running counter.
It is delivered fault-free and under capacity and landed hourly by the
``ShardedLogMover`` onto the 4-shard category-hashed ``ShardedHDFS``.
There is no build step and almost no codec work. The payloads are the
same for every seed; the seed picks the aggregators daemons discover.
Each operation is one delivery slice; every ``SLICES_PER_HOUR`` slices
the hour is landed, and every ``HOURS_PER_EPISODE`` hours the deployment
is audited and replaced.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.clock import MILLIS_PER_HOUR, MILLIS_PER_MINUTE
from repro.hdfs.layout import LOGS_ROOT, hour_for_millis
from repro.logmover.sharded import ShardedLogMover
from repro.scribe.aggregator import decode_messages
from repro.scribe.cluster import ScribeDeployment
from repro.scribe.message import CategoryConfig, LogEntry, decode_envelope

from harness import best_of, percentile
from workloads.common import (Run, daemons_of, delivery_problems,
                              sample_backlogs, send_stats)

#: (category, QoS tier): every tier, and by crc32 all four shards.
CATEGORIES = (
    ("scale_billing", "critical"),
    ("scale_audit", "critical"),
    ("scale_web", "standard"),
    ("scale_search", "standard"),
    ("scale_feed", "standard"),
    ("scale_diag", "bulk"),
    ("scale_mail", "bulk"),
    ("scale_mobile", "bulk"),
)
SHARDS = 4
HOSTS_PER_DC = 3
#: Entries each host logs per slice: bench_e23's 4 per slice x 100.
ENTRIES_PER_HOST = 400
SLICES_PER_HOUR = 12
HOURS_PER_EPISODE = 2
MAX_FILE_RECORDS = 500


class BulkIngest:
    name = "bulk_ingest"
    setup_reps = 25
    latency_op = ("one delivery slice: every host logs its entries, then "
                  "flush_all rolls them to staging")
    throughput_unit = "payloads landed per second of delivery and landing"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._episode = None
        self._slice = 0

    def setup(self) -> Dict[str, Any]:
        """Generate one episode's payloads, per slice and host, plus a
        deployment ready for the first episode."""
        hosts = 2 * HOSTS_PER_DC
        slices = []
        counter = 0
        for __ in range(SLICES_PER_HOUR * HOURS_PER_EPISODE):
            per_host = []
            for __ in range(hosts):
                entries = []
                for __ in range(ENTRIES_PER_HOST):
                    category = CATEGORIES[counter % len(CATEGORIES)][0]
                    entries.append((category, b"e%08d" % counter))
                    counter += 1
                per_host.append(entries)
            slices.append(per_host)
        return {"slices": slices, "payloads": counter,
                "episode": self._new_episode()}

    def sizes(self, state) -> Dict[str, Any]:
        payload_bytes = sum(len(p) for per_host in state["slices"]
                            for entries in per_host for __, p in entries)
        return {"categories": len(CATEGORIES), "shards": SHARDS,
                "hosts": 2 * HOSTS_PER_DC,
                "payloads_per_episode": state["payloads"],
                "payload_bytes_per_episode": payload_bytes,
                "hours_per_episode": HOURS_PER_EPISODE}

    def _new_episode(self) -> Dict[str, Any]:
        deployment = ScribeDeployment(
            ["east", "west"], num_hosts=HOSTS_PER_DC, num_aggregators=2,
            durable_aggregators=False, seed=self.seed,
            warehouse_shards=SHARDS)
        for category, tier in CATEGORIES:
            deployment.categories.register(CategoryConfig(
                category=category, codec="zlib",
                max_file_records=MAX_FILE_RECORDS, qos=tier))
        mover = ShardedLogMover(
            {name: dc.staging for name, dc in deployment.datacenters.items()},
            deployment.warehouse, clock=deployment.clock)
        return {"deployment": deployment, "mover": mover,
                "sent": {category: [] for category, __ in CATEGORIES},
                "landed": 0}

    def step(self, state, run: Run) -> None:
        if self._episode is None:
            self._episode = state.pop("episode", None) or self._new_episode()
        episode = self._episode
        deployment, mover = episode["deployment"], episode["mover"]
        index = self._slice
        self._slice += 1
        hour_index, slice_in_hour = divmod(index, SLICES_PER_HOUR)
        clock = deployment.clock
        target = (hour_index * MILLIS_PER_HOUR + 2 * MILLIS_PER_MINUTE
                  + slice_in_hour * 4 * MILLIS_PER_MINUTE)
        if clock.now() < target:
            clock.advance(target - clock.now())
        daemons = daemons_of(deployment)
        entries = state["slices"][index]
        registry = run.fresh_registry()
        with run.operation("slice"):
            started = time.perf_counter()
            for daemon, host_entries in zip(daemons, entries):
                for category, payload in host_entries:
                    daemon.log(LogEntry(category, payload))
            sample_backlogs(run, deployment)
            deployment.flush_all()
            slice_s = time.perf_counter() - started
            move_s = 0.0
            if slice_in_hour == SLICES_PER_HOUR - 1:
                started = time.perf_counter()
                mover.move_hours([hour_for_millis(category,
                                                  hour_index * MILLIS_PER_HOUR)
                                  for category, __ in CATEGORIES],
                                 require_complete=False)
                move_s = time.perf_counter() - started
        run.latency(index, slice_s * 1e3)
        run.busy(("slice", index), slice_s,
                 sum(len(host_entries) for host_entries in entries))
        run.events += sum(len(host_entries) for host_entries in entries)
        for host_entries in entries:
            for category, payload in host_entries:
                episode["sent"][category].append(payload)
        if move_s:
            run.busy(("move", hour_index), move_s, 0)
            self._landed(episode)
        run.harvest(registry, "slice")
        problems: List[str] = []
        if self._slice == len(state["slices"]):
            problems = self._close(run)
        run.ledger.record(problems)

    @staticmethod
    def _landed(episode) -> None:
        episode["landed"] = sum(r.messages_moved
                                for r in episode["mover"].moves)

    def _close(self, run: Run) -> List[str]:
        """Audit the episode and start the next on a fresh deployment."""
        episode = self._episode
        send_stats(run, episode["deployment"])
        problems = self._audit(episode, episode["landed"])
        self._episode = self._new_episode()
        self._slice = 0
        return problems

    def finish(self, state, run: Run) -> None:
        """Land and audit an episode the run's deadline cut short. Its
        slices count; its last landing, of part of an hour, does not."""
        if not self._slice:
            return
        hour_index, slice_in_hour = divmod(self._slice, SLICES_PER_HOUR)
        if slice_in_hour:
            self._episode["mover"].move_hours(
                [hour_for_millis(category, hour_index * MILLIS_PER_HOUR)
                 for category, __ in CATEGORIES], require_complete=False)
            self._landed(self._episode)
        run.ledger.record(self._close(run))

    @staticmethod
    def _audit(episode, landed: int) -> List[str]:
        """Conservation, per-hour identities, and every payload landed
        exactly once in its own category."""
        deployment, mover = episode["deployment"], episode["mover"]
        problems = delivery_problems(
            daemons_of(deployment), mover, landed=landed,
            quarantined=sum(r.quarantined_messages for r in mover.moves))
        warehouse = deployment.warehouse
        for category, sent in episode["sent"].items():
            got = []
            for path in warehouse.glob_files(f"{LOGS_ROOT}/{category}"):
                for frame in decode_messages(warehouse.open_bytes(path)):
                    got.append(decode_envelope(frame)[2])
            if sorted(got) != sorted(sent):
                problems.append(f"{category}: landed {len(got)} payloads, "
                                f"{len(sent)} sent, or different bytes")
        return problems

    @staticmethod
    def details(run: Run) -> Dict[str, Any]:
        """Each slice and hour of the episode at its fastest repeat."""
        hours = [1e3 * seconds for key, seconds in best_of(run.busy_s).items()
                 if key[0] == "move"]
        return {"ingest_events_per_s": run.throughput(),
                "hour_land_p50_ms": percentile(hours, 0.5) if hours else None,
                "hours_landed": sum(len(run.busy_s[key])
                                    for key in run.busy_s if key[0] == "move")}
