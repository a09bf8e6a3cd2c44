"""``streaming_hours``: client events landed as micro-batches and folded
into incremental sessions and rollups.

Each episode delivers ``HOURS`` busy hours of one generated day through
Scribe in five-minute traffic slices. After every slice the
``StreamingMover`` is polled and the ``IncrementalPipeline`` observes
the poll. One datacenter's aggregators are held down across the first
hour's seal, so their write-ahead replay re-opens a sealed hour as late
data. Each operation is one poll; every episode ends by sealing all
hours, then is audited and replaced by a fresh deployment.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro.clock import LogicalClock, MILLIS_PER_HOUR, MILLIS_PER_MINUTE
from repro.core.event import CLIENT_EVENTS_CATEGORY
from repro.hdfs.layout import LogHour, millis_for_hour
from repro.logmover.streaming import StreamingMover
from repro.obs import names as obs_names
from repro.oink.incremental import IncrementalPipeline
from repro.oink.rollups import ROLLUPS_ROOT, RollupJob, rollup_day_dir
from repro.scribe.cluster import ScribeDeployment
from repro.scribe.message import CategoryConfig, LogEntry
from repro.workload.generator import WorkloadGenerator

from harness import best_of, latency_summary
from workloads.common import (Run, daemons_of, delivery_problems,
                              first_users, sample_backlogs, send_stats,
                              sessionize)

#: Users generated; an episode keeps the first users whose events in
#: the window reach EPISODE_EVENTS.
USERS = 700
EPISODE_EVENTS = 3000
DATE = (2012, 3, 1)
FIRST_HOUR = 8
HOURS = 12
SLICE_MS = 5 * MILLIS_PER_MINUTE
SLICES_PER_HOUR = MILLIS_PER_HOUR // SLICE_MS
DATACENTERS = ("east", "west")
HELD_DC = "east"
#: The held aggregators restart this many slices into the second hour,
#: well after the first hour sealed.
RELEASE_SLICE = 3
REBUILD_ROOT = "/rollups_rebuild"
CATEGORY = CLIENT_EVENTS_CATEGORY


class StreamingHours:
    name = "streaming_hours"
    setup_reps = 7
    latency_op = ("one poll: StreamingMover.poll plus "
                  "IncrementalPipeline.observe_poll")
    throughput_unit = ("events landed and folded into the incremental "
                       "rollups per second of delivery, polling and sealing")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._episode = None
        self._slice = 0

    def setup(self) -> Dict[str, Any]:
        """Generate the day and cut the episode's events into slices."""
        events = WorkloadGenerator(num_users=USERS,
                                   seed=self.seed).generate_day(*DATE).events
        window_ms = millis_for_hour(LogHour(CATEGORY, *DATE, FIRST_HOUR))
        end_ms = window_ms + HOURS * MILLIS_PER_HOUR
        events = first_users(
            [e for e in events if window_ms <= e.timestamp < end_ms],
            EPISODE_EVENTS)
        slices: List[list] = [[] for __ in range(HOURS * SLICES_PER_HOUR)]
        for event in sorted(events, key=lambda e: e.timestamp):
            index = (event.timestamp - window_ms) // SLICE_MS
            if 0 <= index < len(slices):
                slices[index].append(event)
        # Hold at the first hour's last slice that sends the held
        # datacenter traffic, so its write-ahead logs carry late data.
        held = [i for i in range(SLICES_PER_HOUR) if any(
            _datacenter(e) == HELD_DC for e in slices[i])]
        return {"window_ms": window_ms, "slices": slices,
                "hold_slice": held[-1] if held else None,
                "episode": self._new_episode(window_ms)}

    def sizes(self, state) -> Dict[str, Any]:
        return {"users_generated": USERS, "hours": HOURS,
                "hold_slice": state["hold_slice"],
                "events_per_episode": sum(map(len, state["slices"])),
                "slices_per_episode": len(state["slices"]),
                "held_datacenter": HELD_DC}

    def _new_episode(self, window_ms: int) -> Dict[str, Any]:
        deployment = ScribeDeployment(
            list(DATACENTERS), num_hosts=4, num_aggregators=2,
            durable_aggregators=True, seed=self.seed,
            clock=LogicalClock(window_ms))
        deployment.categories.register(
            CategoryConfig(CATEGORY, max_file_records=500))
        mover = StreamingMover(
            {name: dc.staging for name, dc in deployment.datacenters.items()},
            deployment.warehouse, deployment.clock)
        pipeline = IncrementalPipeline(deployment.warehouse,
                                       category=CATEGORY)
        return {"deployment": deployment, "mover": mover,
                "pipeline": pipeline, "landed": 0, "quarantined_files": 0,
                "pending": {}, "lags": [], "slices_run": 0,
                "open_peak": 0}

    def _observe(self, episode, poll) -> None:
        """Fold one poll; stamp the events the fold made visible."""
        deltas = episode["pipeline"].observe_poll(poll)
        episode["landed"] += poll.messages_landed
        episode["quarantined_files"] += sum(b.quarantined_files
                                            for b in poll.batches)
        now = episode["deployment"].clock.now()
        pending = episode["pending"]
        for delta in deltas:
            for ident in episode["mover"].landed_identities(delta.hour):
                logged_ms = pending.pop(ident, None)
                if logged_ms is not None:
                    episode["lags"].append(now - logged_ms)

    def step(self, state, run: Run) -> None:
        if self._episode is None:
            self._episode = (state.pop("episode", None)
                             or self._new_episode(state["window_ms"]))
        episode = self._episode
        deployment, mover = episode["deployment"], episode["mover"]
        clock = deployment.clock
        index = self._slice
        self._slice += 1
        slice_end = state["window_ms"] + (index + 1) * SLICE_MS
        registry = run.fresh_registry()
        with run.operation("slice"):
            started = time.perf_counter()
            for event in state["slices"][index]:
                clock.advance_to(event.timestamp)
                dc = deployment.datacenters[_datacenter(event)]
                daemon = dc.daemons[event.user_id % len(dc.daemons)]
                daemon.log(LogEntry(CATEGORY, event.to_bytes()))
                episode["pending"][(daemon.host, daemon.next_seq - 1)] = \
                    clock.now()
            self._hold_or_release(deployment, index, state["hold_slice"])
            clock.advance_to(slice_end)
            sample_backlogs(run, deployment)
            deployment.flush_all()
            delivered_s = time.perf_counter() - started
        with run.operation("poll"):
            started = time.perf_counter()
            poll = mover.poll(CATEGORY)
            self._observe(episode, poll)
            poll_s = time.perf_counter() - started
        run.latency(index, poll_s * 1e3)
        run.busy(("slice", index), delivered_s + poll_s,
                 len(state["slices"][index]))
        episode["open_peak"] = max(
            episode["open_peak"],
            registry.total(obs_names.INCREMENTAL_OPEN_SESSIONS))
        run.harvest(registry, "poll")
        run.events += len(state["slices"][index])
        episode["slices_run"] = self._slice

        problems: List[str] = []
        if self._slice == len(state["slices"]):
            problems = self._close(state, episode, run)
            self._episode = self._new_episode(state["window_ms"])
            self._slice = 0
        run.ledger.record(problems)

    def finish(self, state, run: Run) -> None:
        """Seal and audit an episode the run's deadline cut short. Its
        slices count; its closing seal, which lands less, does not."""
        if not self._slice:
            return
        dc = self._episode["deployment"].datacenters[HELD_DC]
        for aggregator in dc.aggregators.values():
            aggregator.start()  # operators restart whatever is still held
        run.ledger.record(self._close(state, self._episode, run))

    @staticmethod
    def _hold_or_release(deployment, index: int, hold: int) -> None:
        """Crash the held datacenter's aggregators right after slice
        ``hold`` reached them, before they roll it to staging; restart
        them RELEASE_SLICE slices into the second hour, well after the
        first hour sealed (the restart replays their write-ahead logs
        into the sealed hour)."""
        dc = deployment.datacenters[HELD_DC]
        if index == hold:
            for daemon in dc.daemons:
                daemon.flush()
            for aggregator in dc.aggregators.values():
                aggregator.crash()
        elif index == SLICES_PER_HOUR + RELEASE_SLICE:
            for aggregator in dc.aggregators.values():
                aggregator.start()

    def _close(self, state, episode, run: Run) -> List[str]:
        """Seal every hour, close every session, then audit."""
        deployment, mover = episode["deployment"], episode["mover"]
        pipeline = episode["pipeline"]
        registry = run.fresh_registry()
        with run.operation("seal"):
            started = time.perf_counter()
            deployment.flush_all()
            mover.run_until_sealed(
                CATEGORY, on_poll=lambda poll: self._observe(episode, poll))
            pipeline.finish()
            seal_s = time.perf_counter() - started
        run.harvest(registry, "seal")
        if episode["slices_run"] == len(state["slices"]):
            run.busy("seal", seal_s, 0)
        run.details.setdefault("freshness_ms", []).extend(episode["lags"])
        run.peak("open_sessions", episode["open_peak"])
        send_stats(run, deployment)
        return self._audit(state, episode)

    @staticmethod
    def _audit(state, episode) -> List[str]:
        deployment, mover = episode["deployment"], episode["mover"]
        pipeline = episode["pipeline"]
        # Entries a daemon buffers while its aggregators are down land
        # in the hour they are received, so identities are matched over
        # the episode rather than per hour.
        problems = delivery_problems(daemons_of(deployment), mover,
                                     landed=episode["landed"], quarantined=0,
                                     per_hour=False)
        if episode["quarantined_files"]:
            problems.append(f"{episode['quarantined_files']} files "
                            "quarantined")
        if mover.unsealed_hours():
            problems.append(f"hours left unsealed: {mover.unsealed_hours()}")
        released = SLICES_PER_HOUR + RELEASE_SLICE
        if episode["slices_run"] > released and mover.late_reopens() < 1:
            problems.append("the held datacenter's replay re-opened no "
                            "sealed hour")
        stale = len(episode["pending"])
        if stale:
            problems.append(f"{stale} events never became rollup-visible")

        # Rollups: byte-identical to a from-scratch batch rebuild.
        warehouse = deployment.warehouse
        rebuild = RollupJob(warehouse, category=CATEGORY, root=REBUILD_ROOT)
        for day in pipeline.rollup.days():
            rebuild.run(*day)
            live_dir = rollup_day_dir(*day, root=ROLLUPS_ROOT)
            rebuilt_dir = rollup_day_dir(*day, root=REBUILD_ROOT)
            for path in sorted(warehouse.glob_files(rebuilt_dir)):
                live = path.replace(rebuilt_dir, live_dir, 1)
                if (not warehouse.exists(live) or warehouse.open_bytes(live)
                        != warehouse.open_bytes(path)):
                    problems.append(f"{live} differs from the rebuild")

        # Sessions: equal to a batch sessionization of the events sent.
        sent = [event for events in state["slices"][:episode["slices_run"]]
                for event in events]
        expected = [_signature(*session) for session in sessionize(sent)]
        got = [_signature(c.session.user_id, c.session.session_id,
                          c.session.events)
               for c in pipeline.sessionizer.closed_sessions()]
        if sorted(got) != sorted(expected):
            problems.append(f"incremental sessions ({len(got)}) differ from "
                            f"the batch sessionization ({len(expected)})")
        return problems

    @staticmethod
    def details(run: Run) -> Dict[str, Any]:
        lags = run.details.get("freshness_ms", [])
        polls = latency_summary(list(best_of(run.latencies_ms).values()))
        out = {"stream_events_per_s": run.throughput()
               if run.busy_s else 0.0,
               "poll_p50_ms": polls["p50_ms"], "poll_p95_ms": polls["p95_ms"]}
        if lags:
            summary = latency_summary(lags)
            out["freshness_p95_ms"] = summary["p95_ms"]
            out["freshness_samples"] = summary["samples"]
        return out


def _datacenter(event) -> str:
    """The datacenter a user's client logs to."""
    return DATACENTERS[event.user_id % len(DATACENTERS)]


def _signature(user: int, session: str, events) -> Tuple:
    return (user, session, tuple((e.timestamp, e.event_name)
                                 for e in events))
