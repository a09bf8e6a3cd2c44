"""``query_mix``: one analyst issuing a seeded query mix, closed loop.

Set-up lands one generated day twice: raw only, and with Elephant Twin
partitions, columnar segments and session sequences beside it. The
client then issues one query at a time, each type doing most of its work
in a different layer:

* ``scan_plain``: ``count_events_raw`` over the raw-only day;
* ``scan_columnar``: the same projected count over the sidecar day;
* ``lookup_indexed``: ``count_events_selective`` or ``events_for_user``
  over the sidecar day;
* ``sequence_query``: ``count_events_sequences`` or ``run_funnel`` over
  the session sequences.

Patterns, users and funnels are drawn with a Zipf skew from the day's
catalog into a fixed list of ``ROTATIONS`` rotations, so a few repeat
within the list and most do not; the client issues the list in a cycle.
Every answer is checked against a direct count over the generated
events.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Dict, List, Sequence, Tuple

from repro.analytics.counting import (count_events_raw, count_events_selective,
                                      count_events_sequences, events_for_user)
from repro.analytics.funnel import run_funnel
from repro.core.builder import SessionSequenceBuilder
from repro.elephanttwin import buildjob
from repro.hdfs.namenode import HDFS
from repro.warehouse import segment
from repro.workload.generator import (DayWorkload, WorkloadGenerator,
                                     load_warehouse_day)

from harness import best_of, latency_summary
from workloads.common import Run, date_of, first_users, sessionize

#: Users generated; the day keeps the first users whose events on the
#: day reach DAY_EVENTS.
USERS = 200
DAY_EVENTS = 800
DATE = (2012, 3, 10)
#: Small blocks give the raw day many splits for the index to prune.
BLOCK_SIZE = 16 * 1024
#: The query types, issued in rotation so each is exactly a quarter of
#: the mix whatever the seed. Sequence queries answer ~20x faster than
#: the other three, so a latency or a rate pooled over all queries would
#: hardly see them; the gated mean latency and rate weigh each type
#: equally instead (:meth:`QueryMix.gated`).
KINDS = ("scan_plain", "scan_columnar", "lookup_indexed", "sequence_query")
ZIPF_S = 1.1
#: Rotations in the query list. The list is drawn once from the seed and
#: issued in a cycle, so each query repeats through the run and counts
#: at its fastest repeat.
ROTATIONS = 6


def zipf_pick(rng: random.Random, items: Sequence[Any]) -> Any:
    """An item drawn with probability proportional to 1 / rank ** s."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(items))]
    return rng.choices(items, weights=weights)[0]


def matches(pattern: str, name: str) -> bool:
    """The oracle's pattern test, for the three pattern forms drawn here:
    an exact name, ``c1:...:ck:*`` and ``*:action``."""
    if pattern.startswith("*:"):
        return name.split(":")[-1] == pattern[2:]
    if pattern.endswith(":*"):
        prefix = pattern[:-2].split(":")
        return name.split(":")[:len(prefix)] == prefix
    return name == pattern


def funnel_depth(names: Sequence[str], stages: Sequence[str]) -> int:
    """Stages completed in order, as a subsequence of the session."""
    depth, at = 0, 0
    for stage in stages:
        while at < len(names) and names[at] != stage:
            at += 1
        if at == len(names):
            break
        depth += 1
        at += 1
    return depth


class Oracle:
    """Answers computed directly from the generated day's events."""

    def __init__(self, events) -> None:
        day = [e for e in events if date_of(e.timestamp) == DATE]
        self.events = day
        self.names = Counter(e.event_name for e in day)
        self.by_user: Dict[int, List[Tuple]] = defaultdict(list)
        for event in day:
            self.by_user[event.user_id].append(_row(event))
        for rows in self.by_user.values():
            rows.sort()
        self.sessions: List[List[str]] = [
            [e.event_name for e in events]
            for __, __, events in sessionize(day)]

    def count(self, pattern: str) -> int:
        return sum(n for name, n in self.names.items()
                   if matches(pattern, name))

    def funnel(self, stages: Sequence[str]) -> List[int]:
        depths = [funnel_depth(names, stages) for names in self.sessions]
        return [sum(1 for d in depths if d >= k)
                for k in range(1, len(stages) + 1)]


def _row(event) -> Tuple:
    return (event.timestamp, event.session_id, event.event_name)


def candidate_patterns(names: Counter) -> List[str]:
    """Patterns from the catalog, most frequent names first: each exact
    name, its two- and three-component prefixes, and its action."""
    out: Dict[str, None] = {}
    for name, __ in names.most_common():
        parts = name.split(":")
        for pattern in (name, ":".join(parts[:2]) + ":*",
                        ":".join(parts[:3]) + ":*", "*:" + parts[-1]):
            out.setdefault(pattern, None)
    return list(out)


class QueryMix:
    name = "query_mix"
    setup_reps = 5
    latency_op = "one query of the mix, issued after the previous answered"
    throughput_unit = "queries answered per second"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._issued = 0
        self.oracle = None

    def _prepare(self, events) -> None:
        """The oracle and the draw lists, once, from the generated day."""
        self.oracle = Oracle(events)
        self.patterns = candidate_patterns(self.oracle.names)
        self.users = [u for u, __ in sorted(
            self.oracle.by_user.items(), key=lambda kv: (-len(kv[1]), kv[0]))]
        long_sessions = [s for s in self.oracle.sessions if len(set(s)) >= 3]
        self.funnels = [self._stages(s) for s in long_sessions]
        # The two-query types alternate between their two queries.
        rng = random.Random(self.seed)
        self.queries: List[Tuple[str, Any]] = []
        for rotation in range(ROTATIONS):
            variant = rotation % 2 == 1
            for kind in KINDS:
                if kind == "lookup_indexed" and variant:
                    query: Any = ("user", zipf_pick(rng, self.users))
                elif kind == "sequence_query" and variant:
                    query = ("funnel", zipf_pick(rng, self.funnels))
                else:
                    query = ("pattern", zipf_pick(rng, self.patterns))
                self.queries.append((kind, query))

    @staticmethod
    def _stages(names: List[str]) -> List[str]:
        """Three funnel stages: distinct names in the session's order."""
        distinct = list(dict.fromkeys(names))
        return [distinct[0], distinct[len(distinct) // 2], distinct[-1]]

    def setup(self) -> Dict[str, Any]:
        """Generate the day; land it raw-only and with every sidecar."""
        generated = WorkloadGenerator(num_users=USERS,
                                      seed=self.seed).generate_day(*DATE)
        day = DayWorkload(date=DATE, events=first_users(
            generated.events, DAY_EVENTS,
            lambda e: date_of(e.timestamp) == DATE),
            sessions_generated=0, funnel_entries=0)
        raw = HDFS(block_size=BLOCK_SIZE, name="warehouse-raw")
        side = HDFS(block_size=BLOCK_SIZE, name="warehouse")
        load_warehouse_day(raw, day)
        load_warehouse_day(side, day)
        buildjob.build_day_indexes(side, *DATE)
        segment.build_day_segments(side, *DATE)
        builder = SessionSequenceBuilder(side)
        builder.run(*DATE)
        return {"raw": raw, "side": side, "events": day.events,
                "dictionary": builder.load_dictionary(*DATE)}

    def sizes(self, state) -> Dict[str, Any]:
        if self.oracle is None:
            self._prepare(state["events"])
        return {"users": len({e.user_id for e in state["events"]}),
                "events": len(state["events"]),
                "day_events": len(self.oracle.events),
                "raw_bytes": state["raw"].total_stored_bytes("/logs"),
                "distinct_events": len(self.oracle.names),
                "patterns": len(self.patterns),
                "sessions": len(self.oracle.sessions)}

    def step(self, state, run: Run) -> None:
        if self.oracle is None:
            self._prepare(state["events"])
        index = self._issued % len(self.queries)
        self._issued += 1
        kind, (form, arg) = self.queries[index]
        raw, side = state["raw"], state["side"]
        registry = run.fresh_registry()
        with run.operation(kind):
            started = time.perf_counter()
            if kind == "scan_plain":
                answer: Any = count_events_raw(raw, DATE, arg)
            elif kind == "scan_columnar":
                answer = count_events_raw(side, DATE, arg)
            elif form == "user":
                answer = sorted(_row(e) for e in
                                events_for_user(side, DATE, arg))
            elif kind == "lookup_indexed":
                answer = count_events_selective(side, DATE, arg)
            elif form == "funnel":
                answer = run_funnel(side, DATE, arg,
                                    state["dictionary"]).stage_counts
            else:
                answer = count_events_sequences(side, DATE, arg,
                                                state["dictionary"])
            query_s = time.perf_counter() - started
        run.latency((kind, index), query_s * 1e3)
        run.busy((kind, index), query_s, 1)
        run.events += len(self.oracle.events)
        run.harvest(registry, kind)

        if form == "user":
            expected: Any = self.oracle.by_user[arg]
        elif form == "funnel":
            expected = self.oracle.funnel(arg)
        else:
            expected = self.oracle.count(arg)
        problems = []
        if answer != expected:
            problems.append(f"{kind} answered {str(answer)[:80]}, the "
                            f"oracle {str(expected)[:80]}")
        run.ledger.record(problems)

    def finish(self, state, run: Run) -> None:
        """Nothing is left open between operations."""

    @staticmethod
    def by_type(run: Run) -> Dict[str, List[float]]:
        """Each query type's queries, at their fastest repeats, in ms."""
        out: Dict[str, List[float]] = {}
        for (kind, __), ms in best_of(run.latencies_ms).items():
            out.setdefault(kind, []).append(ms)
        return out

    @staticmethod
    def gated(run: Run) -> Dict[str, float]:
        """The gated mean latency and rate, each query type weighing the
        same: geometric means over the types of their mean latencies and
        of their rates (answers per second of their own busy time). A
        change to any one type moves both; the p95 stays pooled over all
        queries."""
        samples = list(QueryMix.by_type(run).values())
        return {
            "latency_mean_ms": statistics.geometric_mean(
                statistics.fmean(ms) for ms in samples),
            "throughput_per_s": statistics.geometric_mean(
                1e3 * len(ms) / sum(ms) for ms in samples),
        }

    @staticmethod
    def details(run: Run) -> Dict[str, Any]:
        types = QueryMix.by_type(run)
        out: Dict[str, Any] = {}
        for kind in KINDS:
            samples = types.get(kind, [])
            if samples:
                summary = latency_summary(samples)
                out[f"{kind}_p50_ms"] = summary["p50_ms"]
                out[f"{kind}_samples"] = summary["samples"]
                out[f"{kind}_per_s"] = 1e3 * len(samples) / sum(samples)
        best = [ms for samples in types.values() for ms in samples]
        out["query_p95_ms"] = latency_summary(best)["p95_ms"]
        out["queries_per_s"] = 1e3 * len(best) / sum(best)
        return out
