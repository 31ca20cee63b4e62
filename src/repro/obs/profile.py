"""Opt-in wall-clock profiling of the lookup hot path.

The simulation's figure of merit is *PCBs examined* -- a deterministic,
machine-independent cost.  This module adds the complementary
real-world observable: how many nanoseconds the Python implementation
of a lookup actually takes, measured with ``time.perf_counter_ns`` on a
*sample* of lookups (every Nth) so the instrumented run stays within a
small overhead budget (<5% at the default sampling rate on realistic
table sizes; ``benchmarks/bench_obs_overhead.py`` asserts this and
records the measurement in ``BENCH_obs.json``).

A :class:`LookupProfiler` attaches to a ``DemuxAlgorithm``; the base
class routes ``_lookup`` calls through :meth:`LookupProfiler.call`,
which times every ``sample_every``-th call and passes the rest straight
through, and whole ``_lookup_batch`` calls through
:meth:`LookupProfiler.call_batch`, which times a batch holding a
sample point and attributes its time evenly to its packets.  Profiling
never changes results, statistics, or RNG state -- it only reads the
clock.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, List

__all__ = [
    "DEFAULT_SAMPLE_EVERY",
    "ProfileReport",
    "LookupProfiler",
]

#: Default sampling period: time one lookup in every 64.
DEFAULT_SAMPLE_EVERY = 64


@dataclasses.dataclass(frozen=True)
class ProfileReport:
    """Summary of one profiling session."""

    #: Lookups routed through the profiler (sampled or not).
    lookups: int
    #: Lookups actually timed.
    samples: int
    sample_every: int
    total_ns: int
    min_ns: int
    max_ns: int
    mean_ns: float
    p50_ns: int
    p95_ns: int

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def render(self) -> str:
        if not self.samples:
            return "no samples (profiler saw {0} lookups)".format(self.lookups)
        return (
            f"{self.samples} samples over {self.lookups} lookups"
            f" (1/{self.sample_every}):"
            f" mean {self.mean_ns:.0f} ns,"
            f" p50 {self.p50_ns} ns, p95 {self.p95_ns} ns,"
            f" min {self.min_ns} ns, max {self.max_ns} ns"
        )


class LookupProfiler:
    """Samples wall-clock lookup latency on an attached algorithm.

    One profiler may be attached to several algorithms (their samples
    pool); an algorithm accepts at most one profiler at a time.
    """

    def __init__(
        self,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        *,
        max_samples: int = 100_000,
    ):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.sample_every = sample_every
        self.max_samples = max_samples
        self._count = 0
        self._durations: List[int] = []
        #: Samples discarded after hitting ``max_samples``.
        self.overflowed = 0

    # -- attachment ------------------------------------------------------

    def attach(self, algorithm) -> "LookupProfiler":
        """Route ``algorithm``'s lookups through this profiler."""
        if getattr(algorithm, "_profiler", None) is not None:
            raise ValueError(
                f"{algorithm!r} already has a profiler attached"
            )
        algorithm._profiler = self
        return self

    def detach(self, algorithm) -> None:
        """Stop profiling ``algorithm`` (restores the bare hot path)."""
        if getattr(algorithm, "_profiler", None) is not self:
            raise ValueError(f"this profiler is not attached to {algorithm!r}")
        algorithm._profiler = None

    # -- the hot path ----------------------------------------------------

    def call(self, fn: Callable, tup, kind):
        """Invoke ``fn(tup, kind)``, timing every Nth invocation."""
        self._count += 1
        if self._count % self.sample_every:
            return fn(tup, kind)
        start = time.perf_counter_ns()
        result = fn(tup, kind)
        elapsed = time.perf_counter_ns() - start
        if len(self._durations) < self.max_samples:
            self._durations.append(elapsed)
        else:
            self.overflowed += 1
        return result

    def call_batch(self, fn: Callable, packets):
        """Invoke ``fn(packets)`` for a whole batch of lookups.

        The batch counts as ``len(packets)`` lookups and holds the same
        sample points as that many calls to :meth:`call`.  A batch
        holding any is timed once, and each of its samples is the
        batch's mean per-packet time; the others pass straight through.
        """
        count = len(packets)
        before = self._count
        self._count = before + count
        every = self.sample_every
        sampled = (before + count) // every - before // every
        if not sampled:
            return fn(packets)
        start = time.perf_counter_ns()
        results = fn(packets)
        per_packet = (time.perf_counter_ns() - start) // count
        kept = max(0, min(sampled, self.max_samples - len(self._durations)))
        self._durations.extend([per_packet] * kept)
        self.overflowed += sampled - kept
        return results

    # -- reporting -------------------------------------------------------

    @property
    def lookups(self) -> int:
        return self._count

    @property
    def samples(self) -> int:
        return len(self._durations)

    def reset(self) -> None:
        self._count = 0
        self._durations.clear()
        self.overflowed = 0

    def report(self) -> ProfileReport:
        durations = sorted(self._durations)
        n = len(durations)
        if not n:
            return ProfileReport(
                lookups=self._count, samples=0,
                sample_every=self.sample_every,
                total_ns=0, min_ns=0, max_ns=0, mean_ns=0.0,
                p50_ns=0, p95_ns=0,
            )
        total = sum(durations)
        return ProfileReport(
            lookups=self._count,
            samples=n,
            sample_every=self.sample_every,
            total_ns=total,
            min_ns=durations[0],
            max_ns=durations[-1],
            mean_ns=total / n,
            p50_ns=durations[min(n - 1, int(0.50 * n))],
            p95_ns=durations[min(n - 1, int(0.95 * n))],
        )

    def metrics(self) -> List[tuple]:
        """The sampled lookup latency as ``lookup_wallclock_ns`` gauges."""
        report = self.report()
        return [(
            "lookup_wallclock_ns", "gauge", "sampled lookup latency",
            [({"stat": "mean"}, report.mean_ns),
             ({"stat": "p50"}, report.p50_ns),
             ({"stat": "p95"}, report.p95_ns),
             ({"stat": "samples"}, report.samples)],
        )]
