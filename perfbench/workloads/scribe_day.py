"""``scribe_day``: the write path and the daily batch, one day at a time.

Each operation is one generated day of client events: encoded at the
client, delivered daemon -> aggregator -> staging, landed hour by hour by
the ``LogMover``, then built into session sequences, rollups, Elephant
Twin partitions and columnar segments. Every day runs on a fresh
deployment and warehouse, so memory does not grow with run length.
"""

from __future__ import annotations

from collections import defaultdict
from datetime import date as _date, timedelta
from typing import Any, Dict, List, Tuple

from repro.clock import MILLIS_PER_HOUR
from repro.core.builder import SessionSequenceBuilder
from repro.core.event import CLIENT_EVENTS_CATEGORY
from repro.elephanttwin import buildjob
from repro.hdfs.layout import hour_for_millis
from repro.logmover.mover import LogMover
from repro.oink.rollups import ROLLUP_LEVELS, RollupJob
from repro.scribe.cluster import ScribeDeployment
from repro.scribe.message import CategoryConfig, LogEntry
from repro.warehouse import segment
from repro.workload.generator import WorkloadGenerator

from harness import best_of, percentile
from workloads.common import (Laps, Run, daemons_of, date_of,
                              delivery_problems, first_users,
                              sample_backlogs, send_stats)

#: Users generated per day; each day keeps the first users whose events
#: reach DAY_EVENTS.
USERS = 200
DAY_EVENTS = 2000
#: Consecutive days generated at set-up; the run cycles through them.
POOL_DAYS = 2
START = (2012, 3, 1)


class ScribeDay:
    name = "scribe_day"
    setup_reps = 7
    latency_op = ("one day ready: its deployment, every hour landed and "
                  "the four day builds, each part at its fastest repeat")
    throughput_unit = "client events per second of day wall time"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._n = 0

    def setup(self) -> List[Dict[str, Any]]:
        """Generate the day pool: events per hour in time order."""
        generator = WorkloadGenerator(num_users=USERS, seed=self.seed)
        pool = []
        for offset in range(POOL_DAYS):
            when = _date(*START) + timedelta(days=offset)
            day = (when.year, when.month, when.day)
            events = sorted(first_users(generator.generate_day(*day).events,
                                        DAY_EVENTS),
                            key=lambda e: e.timestamp)
            hours: List[Tuple[Any, list]] = []
            for event in events:
                index = event.timestamp // MILLIS_PER_HOUR
                if not hours or hours[-1][0] != index:
                    hours.append((index, []))
                hours[-1][1].append(event)
            in_day = [e for e in events if date_of(e.timestamp) == day]
            pool.append({
                "date": day, "events": len(events),
                "hours": [(hour_for_millis(CLIENT_EVENTS_CATEGORY,
                                           index * MILLIS_PER_HOUR), group)
                          for index, group in hours],
                "day_events": len(in_day),
                "day_hours": len({e.timestamp // MILLIS_PER_HOUR
                                  for e in in_day}),
            })
        return pool

    def sizes(self, pool) -> Dict[str, Any]:
        return {"users_generated": USERS, "days_in_pool": len(pool),
                "events_per_day": [d["events"] for d in pool],
                "hours_per_day": [len(d["hours"]) for d in pool]}

    def step(self, pool, run: Run) -> None:
        index = self._n % len(pool)
        day = pool[index]
        self._n += 1
        registry = run.fresh_registry()
        with run.operation("day"):
            laps = Laps()
            deployment = ScribeDeployment(
                ["east", "west"], num_hosts=4, num_aggregators=2,
                durable_aggregators=True, seed=self.seed)
            deployment.categories.register(
                CategoryConfig(CLIENT_EVENTS_CATEGORY, max_file_records=500))
            clock = deployment.clock
            datacenters = list(deployment.datacenters.values())
            mover = LogMover({name: dc.staging for name, dc
                              in deployment.datacenters.items()},
                             deployment.warehouse, clock=clock)
            laps.lap("deploy")
            for position, (hour, events) in enumerate(day["hours"]):
                for event in events:
                    clock.advance_to(event.timestamp)
                    dc = datacenters[event.user_id % len(datacenters)]
                    dc.log_from(event.user_id, LogEntry(
                        CLIENT_EVENTS_CATEGORY, event.to_bytes()), wrap=True)
                sample_backlogs(run, deployment)
                deployment.flush_all()
                mover.move_hour(hour, require_complete=False)
                laps.lap(position, len(events))
            fs = deployment.warehouse
            date = day["date"]
            build = SessionSequenceBuilder(fs).run(*date)
            laps.lap("sessions")
            rollups = RollupJob(fs).run(*date)
            laps.lap("rollups")
            indexes = buildjob.build_day_indexes(fs, *date)
            laps.lap("indexes")
            segments = segment.build_day_segments(fs, *date)
            laps.lap("segments")

        for part, seconds, work in laps.parts:
            run.busy((index, part), seconds, work)
        run.latency(index, sum(seconds for __, seconds, __ in laps.parts)
                    * 1e3)
        run.events += day["events"]
        run.details["days"] = run.details.get("days", 0) + 1
        run.harvest(registry, "day")
        send_stats(run, deployment)

        problems = delivery_problems(
            daemons_of(deployment), mover,
            landed=sum(r.messages_moved for r in mover.moves),
            quarantined=sum(r.quarantined_messages for r in mover.moves))
        accepted = sum(d.stats.accepted for d in daemons_of(deployment))
        if accepted != day["events"]:
            problems.append(f"accepted {accepted} of {day['events']} logged")
        expected = day["day_events"]
        if build.events_scanned != expected:
            problems.append(f"build scanned {build.events_scanned} events, "
                            f"{expected} generated for the day")
        for level in ROLLUP_LEVELS:
            total = sum(rollups.tables[level].values())
            if total != expected:
                problems.append(f"rollup level {level} counts {total}")
        if len(indexes.built) != day["day_hours"]:
            problems.append(f"indexed {len(indexes.built)} hours of "
                            f"{day['day_hours']}")
        if segments.rows_compacted != expected:
            problems.append(f"segments hold {segments.rows_compacted} rows")
        run.ledger.record(problems)

    def finish(self, state, run: Run) -> None:
        """Nothing is left open between operations."""

    @staticmethod
    def best_latencies(run: Run) -> List[float]:
        """Each pool day's ready time in ms, as the sum of its parts at
        their fastest repeats: a whole day of about a second rarely runs
        entirely at the host's fast speed, its parts do."""
        days: Dict[int, float] = defaultdict(float)
        for (day, __), seconds in best_of(run.busy_s).items():
            days[day] += seconds * 1e3
        return list(days.values())

    @staticmethod
    def details(run: Run) -> Dict[str, Any]:
        """Each part of each pool day at its fastest repeat."""
        hours_ms = [seconds * 1e3 for (__, part), seconds
                    in best_of(run.busy_s).items() if isinstance(part, int)]
        if not hours_ms:
            return {}
        return {"day_ready_s": percentile(ScribeDay.best_latencies(run),
                                          0.5) / 1e3,
                "days": run.details["days"],
                "day_events_per_s": run.throughput(),
                "ingest_events_per_s": sum(run.work.values())
                / (sum(hours_ms) / 1e3),
                "hour_p50_ms": percentile(hours_ms, 0.5),
                "hour_p95_ms": percentile(hours_ms, 0.95),
                "hours": len(hours_ms)}
