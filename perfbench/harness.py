"""Workload-independent pieces of the benchmark: percentiles, fastest
repeats, the host speed gauge, operation accounting, set-up timing,
memory and provenance.

Nothing here imports the program under test, so the self-tests exercise
these rules without building a warehouse.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Tuple)

#: A tail percentile is reported only over samples that leave at least
#: this many observations above it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 1]: the ``ceil(q * n)``-th
    smallest value, so the p50 of 1..100 is 50 and the p95 is 95."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``
    percentile."""
    return n - max(1, math.ceil(q * n)) if n else 0


def latency_summary(values_ms: Sequence[float],
                    tail: float = 0.95) -> Dict[str, Any]:
    """Mean, median and ``tail`` percentile with the sample counts
    behind them.

    ``tail_supported`` is False when fewer than :data:`MIN_BEYOND`
    samples lie above the tail percentile: the value is still given, but
    it rests on too few samples to read as a tail.
    """
    n = len(values_ms)
    beyond = samples_beyond(n, tail)
    return {
        "mean_ms": statistics.fmean(values_ms),
        "p50_ms": percentile(values_ms, 0.5),
        f"p{round(tail * 100)}_ms": percentile(values_ms, tail),
        "samples": n,
        "samples_beyond_tail": beyond,
        "tail_supported": beyond >= MIN_BEYOND,
    }


def best_of(repeats: Mapping[Hashable, Sequence[float]]
            ) -> Dict[Hashable, float]:
    """The fastest time of each repeated operation.

    ``repeats`` maps what an operation does (a day of the pool, a poll of
    an episode, a query of the list) to the times it took on each
    repeat. The host's speed changes by up to 1.6x for seconds at a
    time; the fastest repeat is the operation's own cost with the least
    of that in it, so the figures built on it compare across runs.
    """
    return {key: min(times) for key, times in repeats.items() if times}


def repeat_counts(repeats: Mapping[Hashable, Sequence[float]]
                  ) -> Dict[str, Any]:
    """How many operations were timed, and the fewest and median repeats
    of one."""
    counts = [len(times) for times in repeats.values()]
    return {"operations": len(counts),
            "min_repeats": min(counts) if counts else 0,
            "median_repeats": statistics.median(counts) if counts else 0}


@dataclass
class Ledger:
    """Operations attempted and failed in one run.

    An operation fails when it raises or when an oracle disagrees with
    its output; ``error_rate`` is failed over attempted.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, problems: Sequence[str]) -> bool:
        """Count one operation, failed if any oracle reported a problem;
        keep the first few reasons. Returns True when it succeeded."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(
                    f"op {self.attempted}: " + "; ".join(problems))
        return not problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def timed_setup(make: Callable[[], Any], reps: int,
                between: Callable[[], None]) -> Tuple[List[float], Any]:
    """Run ``make`` ``reps`` times, calling ``between`` untimed before
    each; return the seconds of each and the last result (earlier
    results are dropped before the next rep, so peak memory reflects
    one set-up, not ``reps``)."""
    times: List[float] = []
    result = None
    for _ in range(reps):
        result = None
        between()
        start = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - start)
    return times, result


def reference_work() -> int:
    """A fixed piece of pure-Python work that shares nothing with the
    program: string formatting, dict inserts, a keyed sort and a bytes
    join, about 0.6 ms on the host the benchmark was tuned on."""
    table = {}
    for i in range(1500):
        key = "k%d" % i
        table[key] = (i, key)
    ordered = sorted(table.values(), key=lambda item: -item[0])
    return len(b"".join(key.encode() for __, key in ordered))


class SpeedGauge:
    """The host's speed over a run, read from :func:`reference_work`.

    A shared host's speed changes by up to 1.7x for seconds to minutes,
    for every kind of work at once. Between operations the gauge times
    a batch of reference runs every :attr:`INTERVAL_S`; the fast end
    (:attr:`QUANTILE`) of those times tracks how fast the host was
    during the run. :meth:`scale` converts a run's seconds into seconds
    at :attr:`NOMINAL_S`, the reference's time on the tuning host.
    """

    INTERVAL_S = 0.1
    BATCH = 10
    QUANTILE = 0.05
    NOMINAL_S = 0.0006

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.times: List[float] = []
        self._due = 0.0

    def sample(self) -> None:
        """Time a batch of reference runs if one is due."""
        if self.clock() < self._due:
            return
        for _ in range(self.BATCH):
            start = self.clock()
            reference_work()
            self.times.append(self.clock() - start)
        self._due = self.clock() + self.INTERVAL_S

    def reference_s(self) -> float:
        return percentile(self.times, self.QUANTILE)

    def scale(self) -> float:
        """Multiply a run's times by this (divide its rates by it)."""
        return self.NOMINAL_S / self.reference_s()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def git_commit(root: str) -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree
    (git does not look above ``root`` for one)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, check=False)
    except OSError:  # git is not installed
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root: str, seed: int, workload: str, trace: bool,
               seconds: float, sizes: Dict[str, Any]) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    try:
        usable: Optional[int] = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        usable = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "run_seconds": seconds,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "sizes": sizes,
    }
