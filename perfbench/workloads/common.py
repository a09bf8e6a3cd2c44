"""What every workload shares: the run's accounting and the delivery
oracle (conservation and per-hour landed identities)."""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from harness import Ledger, best_of
from repro.clock import MILLIS_PER_HOUR
from repro.core.event import CLIENT_EVENTS_CATEGORY
from repro.hdfs.layout import hour_for_millis
from repro.obs import names as obs_names
from repro.obs.metrics import MetricsRegistry, set_default_registry

#: Registry counters read after every operation. The program keeps them
#: for operators; the per-layer metrics read the same numbers.
COUNTERS = (
    obs_names.DAEMON_DROPPED,
    obs_names.QOS_SAMPLED,
    obs_names.AGGREGATOR_FILES_WRITTEN,
    obs_names.MOVER_MESSAGES_MOVED,
    obs_names.MOVER_BYTES_MOVED,
    obs_names.MOVER_DUPLICATES_SKIPPED,
    obs_names.STREAMING_BATCHES_LANDED,
    obs_names.STREAMING_HOURS_SEALED,
    obs_names.STREAMING_LATE_REOPENS,
    obs_names.MAPREDUCE_JOBS,
    "mapreduce_task_map_tasks_total",
    "mapreduce_io_map_input_bytes_total",
    "mapreduce_io_shuffle_bytes_total",
    obs_names.ELEPHANTTWIN_SPLITS_SKIPPED,
    obs_names.ELEPHANTTWIN_SPLITS_UNINDEXED,
    obs_names.COLUMNAR_BYTES_DECODED,
    obs_names.COLUMNAR_BLOCKS_PRUNED,
    obs_names.ROLLUP_DELTAS_APPLIED,
    obs_names.INCREMENTAL_SESSIONS_REOPENED,
)


class Run:
    """Everything one measured run accumulates.

    Workloads repeat the same operations (the days of a pool, the polls
    of an episode, the queries of a list), and every timing is kept
    under the key of the operation it timed, so the figures can use each
    operation's fastest repeat (:func:`harness.best_of`).
    ``latencies_ms`` holds the workload's latency operation (an hour
    landed, a delivery slice, a query, a poll). ``busy_s`` holds the
    units of work throughput counts, with the work each one does in
    ``work``. Busy time covers only the program's work: input
    generation and oracles run outside it.
    """

    def __init__(self, recorder=None) -> None:
        self.ledger = Ledger()
        self.latencies_ms: Dict[Any, List[float]] = defaultdict(list)
        self.busy_s: Dict[Any, List[float]] = defaultdict(list)
        self.work: Dict[Any, int] = {}
        #: Input events the program handled (decodes_per_event's base).
        self.events = 0
        self.counters: Dict[str, float] = defaultdict(float)
        self.by_kind: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.peaks: Dict[str, float] = defaultdict(float)
        self.details: Dict[str, Any] = {}
        self.recorder = recorder
        self._ops = 0

    def latency(self, key: Any, ms: float) -> None:
        """One timing of latency operation ``key``."""
        self.latencies_ms[key].append(ms)

    def busy(self, key: Any, seconds: float, work: int) -> None:
        """One timing of the unit of work ``key``, which did ``work``.
        A repeat that does other work than the first is an error."""
        if self.work.setdefault(key, work) != work:
            raise ValueError(f"{key!r} did {work} units of work, "
                             f"{self.work[key]} before")
        self.busy_s[key].append(seconds)

    def throughput(self) -> float:
        """Work per second of busy time, each unit at its fastest."""
        best = best_of(self.busy_s)
        return sum(self.work[key] for key in best) / sum(best.values())

    def operation(self, kind: str):
        """Context of one operation: a root span when tracing."""
        self._ops += 1
        if self.recorder is None:
            return nullcontext()
        return self.recorder.operation(kind, f"{kind}#{self._ops}")

    @staticmethod
    def fresh_registry() -> MetricsRegistry:
        """Install an empty process-wide registry.

        Histograms keep every observation, so one registry per operation
        keeps memory flat however long the run lasts.
        """
        registry = MetricsRegistry()
        set_default_registry(registry)
        return registry

    def harvest(self, registry: MetricsRegistry,
                kind: Optional[str] = None) -> None:
        """Add one operation's counters to the run's totals."""
        for name in COUNTERS:
            value = registry.total(name)
            self.counters[name] += value
            if kind is not None:
                self.by_kind[kind][name] += value
        for labels, metric in registry.series(obs_names.SHARD_MESSAGES_MOVED):
            self.counters[f"shard:{labels.get('shard')}"] += metric.value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)


class Laps:
    """The consecutive timed parts of one operation: ``(part, seconds,
    work)`` in order. Timing an operation in parts lets each part count
    at its own fastest repeat."""

    def __init__(self) -> None:
        self.parts: List[Tuple[Any, float, int]] = []
        self._mark = time.perf_counter()

    def lap(self, part: Any, work: int = 0) -> float:
        """End ``part`` now; returns its seconds."""
        now = time.perf_counter()
        seconds = now - self._mark
        self.parts.append((part, seconds, work))
        self._mark = now
        return seconds


#: The oracles' session cutoff: the program's default inactivity gap.
SESSION_GAP_MS = 30 * 60 * 1000


def date_of(millis: int) -> Tuple[int, int, int]:
    """Calendar day of a client event timestamp."""
    hour = hour_for_millis(CLIENT_EVENTS_CATEGORY, millis)
    return (hour.year, hour.month, hour.day)


def sessionize(events: Iterable[Any]) -> List[Tuple[int, str, list]]:
    """The oracle's sessions: events grouped by (user, session id), in
    time order, split where the gap exceeds :data:`SESSION_GAP_MS`;
    ``(user, session id, events)`` sorted by key."""
    groups: Dict[Tuple[int, str], list] = defaultdict(list)
    for event in events:
        groups[(event.user_id, event.session_id)].append(event)
    sessions = []
    for (user, session), group in sorted(groups.items()):
        group.sort(key=lambda e: e.timestamp)
        current = [group[0]]
        for event in group[1:]:
            if event.timestamp - current[-1].timestamp > SESSION_GAP_MS:
                sessions.append((user, session, current))
                current = []
            current.append(event)
        sessions.append((user, session, current))
    return sessions


def first_users(events: List[Any], target: int,
                counts=lambda event: True) -> List[Any]:
    """The events of the lowest-numbered users whose counted events first
    reach ``target``, in their original order.

    Generated days vary in volume from seed to seed (a few heavy users
    dominate a small population); fixing the volume keeps the work per
    operation, and so the timings, comparable across seeds, while
    sessions stay whole.
    """
    per_user: Dict[int, int] = defaultdict(int)
    for event in events:
        if counts(event):
            per_user[event.user_id] += 1
    chosen, total = set(), 0
    for user in sorted(per_user):
        if total >= target:
            break
        chosen.add(user)
        total += per_user[user]
    if total < target:
        raise ValueError(f"generated only {total} of {target} events")
    return [event for event in events if event.user_id in chosen]


def sample_backlogs(run: Run, deployment) -> None:
    """Record the deepest daemon backlog and aggregator pending count."""
    for dc in deployment.datacenters.values():
        for daemon in dc.daemons:
            run.peak("daemon_backlog", daemon.buffered)
        for aggregator in dc.aggregators.values():
            run.peak("aggregator_pending", aggregator.pending_messages)


def daemons_of(deployment) -> List[Any]:
    return [d for dc in deployment.datacenters.values() for d in dc.daemons]


def send_stats(run: Run, deployment) -> None:
    """Add the deployment's daemon send attempts and accepts."""
    for daemon in daemons_of(deployment):
        run.counters["send_attempts"] += daemon.stats.send_attempts
        run.counters["accepted"] += daemon.stats.accepted


def delivery_problems(daemons: Iterable[Any], mover, landed: int,
                      quarantined: int, per_hour: bool = True) -> List[str]:
    """The delivery oracle.

    Conservation: ``accepted == landed + dropped + quarantined``. The
    identities the mover committed equal the identities the daemons
    accepted and did not drop: hour by hour when ``per_hour``, else
    over the whole run.
    """
    daemons = list(daemons)
    accepted = sum(d.stats.accepted for d in daemons)
    dropped = sum(d.stats.dropped for d in daemons)
    problems = []
    if accepted != landed + dropped + quarantined:
        problems.append(f"conservation: accepted={accepted} != landed="
                        f"{landed} + dropped={dropped} + quarantined="
                        f"{quarantined}")
    expected: Dict[Tuple[str, int], Set[Tuple[str, int]]] = defaultdict(set)
    for daemon in daemons:
        for key, counts in daemon.hour_ledger().items():
            expected[key] |= counts.expected_ids()
    if not per_hour:
        want = set().union(*expected.values()) if expected else set()
        got = mover.landed_identities()
        if got != want:
            problems.append(f"{len(want - got)} accepted identities "
                            f"missing, {len(got - want)} unexpected")
        return problems
    for (category, hour_index), ids in sorted(expected.items()):
        hour = hour_for_millis(category, hour_index * MILLIS_PER_HOUR)
        got = mover.landed_identities(hour)
        if got != ids:
            problems.append(f"{hour}: {len(ids - got)} accepted identities "
                            f"missing, {len(got - ids)} unexpected")
    return problems
