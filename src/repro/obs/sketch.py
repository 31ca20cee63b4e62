"""Streaming traffic sketches: characterize the stream in fixed memory.

The ROADMAP's closed-loop autotuning item needs live answers to four
questions before any controller can act, and all four must come from
the packet stream itself, online, without storing it:

* *How bad is the scan?*  -- quantiles of PCBs-examined.
  :class:`P2Quantile` is the classic P-squared estimator (Jain &
  Chlamtac 1985: five markers, parabolic adjustment, O(1) per
  observation).
* *How skewed is the traffic?*  -- :class:`SpaceSaving` (Metwally et
  al. 2005) heavy hitters: ``capacity`` counters, guaranteed error
  ``<= total/capacity`` per key, plus a zipf-ness estimate from a
  log-log fit over the top counts.  Jain's locality study shows this
  is the signal that decides caching vs. hashing.
* *How train-y is it?*  -- :class:`TrainDetector`: the fraction of
  packets whose predecessor came from the same connection (the paper's
  packet trains; Wu et al. show it decides batching).  Needs every
  packet (sampling destroys adjacency), so it takes them a batch at a
  time and spends one comparison and one multiply-add per packet.
* *How many flows are live?*  -- :class:`HyperLogLog` population and a
  :class:`WorkingSetEstimator` (two epoch-rotated HLLs) for the flows
  seen in the recent window.

:class:`TrafficCharacterizer` bundles them, attaches to a
:class:`repro.obs.spans.SpanCollector`, and reports ``traffic_*``
gauges through its ``metrics()``, which a
:class:`repro.obs.metrics.MetricsRegistry` publishes from a periodic
simulator event.  All estimators are deterministic (the HLLs
hash ``str(key)`` with unkeyed blake2b, the same value in every
process) so paired runs stay paired.

The module imports one thing from outside :mod:`repro.obs`: the
dependency-free :class:`repro.packet.addresses.FourTuple`, whose type
the train detector checks before it takes an exact shortcut.
"""

from __future__ import annotations

import hashlib
import math
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..packet.addresses import FourTuple

__all__ = [
    "DEFAULT_QUANTILES",
    "HyperLogLog",
    "P2Quantile",
    "SpaceSaving",
    "TrafficCharacterizer",
    "TrainDetector",
    "WorkingSetEstimator",
]

DEFAULT_QUANTILES = (0.5, 0.9, 0.99)


class P2Quantile:
    """P-squared streaming quantile: five markers, no samples stored.

    Until five observations arrive the exact values are kept; after
    that each observation adjusts marker heights with the parabolic
    (P²) formula.  ``value()`` is the running estimate of quantile
    ``q``.  The estimator's error shrinks with the stream and is
    validated against exact offline quantiles in the test suite.
    """

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._initial: List[float] = []
        self._heights: Optional[List[float]] = None
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def observe(self, value: float) -> None:
        self.count += 1
        heights = self._heights
        if heights is None:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                q = self.q
                self._desired = [
                    1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0
                ]
            return
        # Which cell does the value fall into?  (The first ``c`` with
        # ``heights[c] <= value < heights[c + 1]``.)
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        elif value < heights[1]:
            cell = 0
        elif value < heights[2]:
            cell = 1
        elif value < heights[3]:
            cell = 2
        else:
            cell = 3
        # Shift the markers above the cell.
        positions = self._positions
        if cell == 0:
            positions[1] += 1.0
        if cell <= 1:
            positions[2] += 1.0
        if cell <= 2:
            positions[3] += 1.0
        positions[4] += 1.0
        # The first marker's desired position stays at 1.0 (its
        # increment is 0.0).
        desired = self._desired
        increments = self._increments
        desired[1] += increments[1]
        desired[2] += increments[2]
        desired[3] += increments[3]
        desired[4] += 1.0
        # Adjust the three inner markers toward their desired positions.
        for i in (1, 2, 3):
            delta = desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 0.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:  # parabolic left the bracket; fall back to linear
                    j = i + int(step)
                    heights[i] += step * (
                        (heights[j] - heights[i])
                        / (positions[j] - positions[i])
                    )
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step)
            * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step)
            * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def value(self) -> float:
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return 0.0
        ordered = sorted(self._initial)
        index = min(
            len(ordered) - 1, int(round(self.q * (len(ordered) - 1)))
        )
        return ordered[index]


class SpaceSaving:
    """Space-Saving heavy hitters: ``capacity`` counters, bounded error.

    When a new key arrives at capacity, the minimum counter is evicted
    and its count inherited (recorded as that key's ``error``).  The
    guarantees (Metwally et al.): every key with true count
    ``> total/capacity`` is retained, and each reported count
    overestimates the true count by at most its ``error``
    ``<= total/capacity``.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counts: Dict[Any, int] = {}
        self._errors: Dict[Any, int] = {}
        self.total = 0

    def offer(self, key: Any, count: int = 1) -> None:
        self.total += count
        counts = self._counts
        existing = counts.get(key)
        if existing is not None:
            counts[key] = existing + count
            return
        if len(counts) < self.capacity:
            counts[key] = count
            self._errors[key] = 0
            return
        # The first minimum in insertion order, read from the items
        # rather than by a lookup (a key hash) per counter.
        victim, floor = min(counts.items(), key=itemgetter(1))
        del counts[victim]
        self._errors.pop(victim)
        counts[key] = floor + count
        self._errors[key] = floor

    def top(self, n: int = 10) -> List[Tuple[Any, int, int]]:
        """The ``n`` largest counters as ``(key, count, error)``."""
        ranked = sorted(
            self._counts.items(), key=lambda item: item[1], reverse=True
        )
        return [
            (key, count, self._errors[key]) for key, count in ranked[:n]
        ]

    def share(self, key: Any) -> float:
        """Estimated fraction of the stream attributed to ``key``."""
        if self.total == 0:
            return 0.0
        return self._counts.get(key, 0) / self.total

    def guarantee(self) -> float:
        """Worst-case overcount of any reported counter."""
        return self.total / self.capacity

    def skew(self, top_n: int = 20) -> float:
        """Zipf exponent estimate: -slope of log(count) vs log(rank).

        0 means uniform; ~1 means classic zipf.  Computed over the top
        ``top_n`` counters, which Space-Saving estimates best.
        """
        ranked = [count for _, count, _ in self.top(top_n) if count > 0]
        if len(ranked) < 3:
            return 0.0
        xs = [math.log(rank + 1) for rank in range(len(ranked))]
        ys = [math.log(count) for count in ranked]
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        var_x = sum((x - mean_x) ** 2 for x in xs)
        if var_x == 0.0:
            return 0.0
        cov = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        )
        return -(cov / var_x)

    def __len__(self) -> int:
        return len(self._counts)


class TrainDetector:
    """Packet-train detector: same-connection adjacency in the stream.

    ``follower_ratio`` is the cumulative fraction of packets whose
    predecessor shared their connection (the paper's "train
    followers"); ``train_ness`` is an EWMA of the same signal, so it
    tracks phase changes.  Must be fed *every* packet -- adjacency is
    exactly what sampling destroys -- so :meth:`offer_packets` takes a
    batch and runs one loop over it: a follower test and one
    multiply-add per packet.
    """

    _NOTHING = object()

    def __init__(self, alpha: float = 0.05, threshold: float = 0.25):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.threshold = threshold
        self._last: Any = self._NOTHING
        self.packets = 0
        self.followers = 0
        self.train_ness = 0.0

    def offer(self, key: Any) -> None:
        """Feed one packet's key."""
        self.offer_packets(((key, None),))

    def offer_packets(self, packets: Sequence[Tuple[Any, Any]]) -> None:
        """Feed ``(key, kind)`` packets in arrival order.

        A packet follows when its key equals its predecessor's
        (``==``).  Two :class:`FourTuple` keys with different remote
        ports cannot be equal, so that test runs first and most
        non-followers cost no address comparison.  The EWMA takes the
        same float steps, in the same order, however the stream is
        split into batches.
        """
        alpha = self.alpha
        train_ness = self.train_ness
        last = self._last
        followers = 0
        four_tuple = FourTuple
        for key, _ in packets:
            if (type(key) is four_tuple and type(last) is four_tuple
                    and key[3] != last[3]):
                train_ness -= alpha * train_ness
            elif key == last:
                followers += 1
                train_ness += alpha * (1.0 - train_ness)
            else:
                train_ness -= alpha * train_ness
            last = key
        self._last = last
        self.packets += len(packets)
        self.followers += followers
        self.train_ness = train_ness

    @property
    def follower_ratio(self) -> float:
        return self.followers / self.packets if self.packets else 0.0

    @property
    def is_trainy(self) -> bool:
        return self.follower_ratio >= self.threshold


class HyperLogLog:
    """Deterministic HLL cardinality estimator (blake2b-hashed keys).

    ``precision`` p gives ``2**p`` one-byte registers and a relative
    error around ``1.04 / sqrt(2**p)`` (~3.3% at the default p=10).
    Hashing ``str(key)`` with blake2b keeps estimates identical across
    processes and runs -- paired experiments stay paired.
    """

    def __init__(self, precision: int = 10):
        if not 4 <= precision <= 16:
            raise ValueError(
                f"precision must be in [4, 16], got {precision}"
            )
        self.precision = precision
        self.m = 1 << precision
        self._registers = bytearray(self.m)

    @staticmethod
    def hash_key(key: Any) -> int:
        """The 64-bit hash :meth:`add` files ``key`` under: blake2b of
        ``str(key)``.  Compute it once to feed several HLLs."""
        digest = hashlib.blake2b(
            str(key).encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    def add(self, key: Any) -> None:
        self.add_hashed(self.hash_key(key))

    def add_hashed(self, hashed: int) -> None:
        """Add a key by its :meth:`hash_key` value."""
        index = hashed & (self.m - 1)
        rest = hashed >> self.precision
        rank = (64 - self.precision) - rest.bit_length() + 1
        if rank > self._registers[index]:
            self._registers[index] = rank

    def count(self) -> float:
        m = self.m
        alpha = 0.7213 / (1.0 + 1.079 / m)
        harmonic = sum(2.0 ** -register for register in self._registers)
        estimate = alpha * m * m / harmonic
        if estimate <= 2.5 * m:
            zeros = self._registers.count(0)
            if zeros:
                estimate = m * math.log(m / zeros)
        return estimate

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.precision != self.precision:
            raise ValueError(
                "cannot merge HLLs of different precision:"
                f" {self.precision} vs {other.precision}"
            )
        merged = HyperLogLog(self.precision)
        merged._registers = bytearray(
            max(a, b) for a, b in zip(self._registers, other._registers)
        )
        return merged


class WorkingSetEstimator:
    """Distinct flows in the recent window, via two rotated HLLs.

    Epochs of ``window`` (virtual) seconds: the current and previous
    epoch HLLs are merged for the estimate, so it covers the last one
    to two windows and forgets older flows -- the working set, not the
    all-time population.
    """

    def __init__(self, window: float = 10.0, precision: int = 10):
        if window <= 0.0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = window
        self.precision = precision
        self._current = HyperLogLog(precision)
        self._previous = HyperLogLog(precision)
        self._epoch_start: Optional[float] = None
        self.rotations = 0

    def offer(self, key: Any, now: float) -> None:
        self.offer_hashed(HyperLogLog.hash_key(key), now)

    def offer_hashed(self, hashed: int, now: float) -> None:
        """Add a key by its :meth:`HyperLogLog.hash_key` value at ``now``."""
        start = self._epoch_start
        if start is None:
            self._epoch_start = now
        elif now - start >= self.window:
            # Jump straight to the epoch holding ``now``.  Every skipped
            # epoch counts as a rotation, but after two or more both
            # windows are empty, so no HLL is built per skipped epoch.
            epochs = int((now - start) // self.window)
            self._previous = (
                self._current if epochs == 1
                else HyperLogLog(self.precision)
            )
            self._current = HyperLogLog(self.precision)
            self._epoch_start = start + epochs * self.window
            self.rotations += epochs
        self._current.add_hashed(hashed)

    def estimate(self) -> float:
        return self._previous.merge(self._current).count()


class TrafficCharacterizer:
    """All four signals bundled, fed by spans, published as gauges.

    ``attach(collector)`` registers two observers on a
    :class:`~repro.obs.spans.SpanCollector`: a packet one feeding the
    train detector every packet, a batch at a time (unsampled), and a
    finished-span one feeding the quantile/heavy-hitter/population
    sketches (sampled).  The two halves share no state, so the order
    in which the collector calls them does not change an estimate.
    ``attach_simulator`` schedules the periodic ``characterize`` event
    that publishes into a registry; ``estimates()`` returns the raw
    numbers for reports and assertions.
    """

    def __init__(
        self,
        *,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        heavy_capacity: int = 128,
        window: float = 10.0,
        precision: int = 10,
        top_n: int = 8,
    ):
        self.examined = {q: P2Quantile(q) for q in quantiles}
        self.heavy = SpaceSaving(heavy_capacity)
        self.trains = TrainDetector()
        self.population = HyperLogLog(precision)
        self.working_set = WorkingSetEstimator(window, precision)
        self.top_n = top_n
        self.packets_observed = 0
        #: Publishes made by the :meth:`attach_simulator` event.
        self.publishes = 0

    # -- feeding -------------------------------------------------------

    def attach(self, collector: object) -> "TrafficCharacterizer":
        collector.add_packet_observer(self.trains.offer_packets)
        collector.add_span_observer(self.on_span)
        return self

    def note_packet(self, key: Any, kind: Any) -> None:
        """Feed one packet directly (bypassing the collector)."""
        self.trains.offer(key)

    def on_span(self, span: object) -> None:
        lookup = span.find_stage("lookup")
        if lookup is None:
            return  # reap spans carry no lookup cost
        self.observe(
            span.four_tuple, lookup.data["examined"], now=span.start
        )

    def observe(self, key: Any, examined: float,
                now: float = 0.0) -> None:
        """Feed one sampled packet directly (bypassing spans)."""
        self.packets_observed += 1
        for sketch in self.examined.values():
            sketch.observe(examined)
        self.heavy.offer(key)
        hashed = HyperLogLog.hash_key(key)
        self.population.add_hashed(hashed)
        self.working_set.offer_hashed(hashed, now)

    # -- reporting -----------------------------------------------------

    def estimates(self) -> Dict[str, Any]:
        return {
            "packets_observed": self.packets_observed,
            "examined_quantiles": {
                str(q): sketch.value()
                for q, sketch in self.examined.items()
            },
            "heavy_hitters": [
                {
                    "key": str(key),
                    "count": count,
                    "error": error,
                    "share": self.heavy.share(key),
                }
                for key, count, error in self.heavy.top(self.top_n)
            ],
            "skew": self.heavy.skew(),
            "train_follower_ratio": self.trains.follower_ratio,
            "train_ness": self.trains.train_ness,
            "is_trainy": self.trains.is_trainy,
            "population": self.population.count(),
            "working_set": self.working_set.estimate(),
        }

    def metrics(self) -> List[tuple]:
        """Current estimates as ``traffic_*`` gauges.

        The heavy-hitter ranking changes membership between publishes;
        a connection that left the top ``top_n`` is no longer reported,
        so the registry drops its old (rank, connection) sample.
        """

        def single(name: str, help_text: str, value: float) -> tuple:
            return (name, "gauge", help_text, [({}, value)])

        return [
            ("traffic_examined_quantile", "gauge",
             "Streaming (P2) quantile of PCBs examined per lookup",
             [({"q": str(q)}, sketch.value())
              for q, sketch in self.examined.items()]),
            ("traffic_heavy_hitter_share", "gauge",
             "Space-Saving per-connection share of sampled packets",
             [({"rank": str(rank), "connection": str(key)},
               self.heavy.share(key))
              for rank, (key, _, _) in enumerate(
                  self.heavy.top(self.top_n), start=1)]),
            single("traffic_skew",
                   "Zipf exponent estimate of connection shares",
                   self.heavy.skew()),
            single("traffic_train_followers",
                   "Fraction of packets following a same-connection packet",
                   self.trains.follower_ratio),
            single("traffic_trainness",
                   "EWMA of the same-connection-follower signal",
                   self.trains.train_ness),
            ("traffic_population", "gauge",
             "Estimated distinct connections (HyperLogLog)",
             [({"scope": "total"}, self.population.count()),
              ({"scope": "working_set"}, self.working_set.estimate())]),
            single("traffic_packets_observed",
                   "Sampled packets feeding the sketches",
                   self.packets_observed),
        ]

    def attach_simulator(
        self,
        sim: object,
        registry: object,
        *,
        interval: float = 5.0,
    ) -> None:
        """Schedule the periodic ``characterize`` publishing event."""
        if interval <= 0.0:
            raise ValueError(f"interval must be > 0, got {interval}")

        def characterize() -> None:
            self.publishes += 1
            registry.publish(self)
            sim.schedule(interval, characterize)

        sim.schedule(interval, characterize)

    def summary(self) -> str:
        est = self.estimates()
        quantiles = est["examined_quantiles"]
        ordered = ", ".join(
            f"p{float(q) * 100:g}={quantiles[q]:.1f}"
            for q in sorted(quantiles, key=float)
        )
        return (
            f"traffic: examined {ordered};"
            f" skew={est['skew']:.2f}"
            f" trains={est['train_follower_ratio']:.2f}"
            f" population~{est['population']:.0f}"
            f" working-set~{est['working_set']:.0f}"
            f" ({est['packets_observed']} sampled)"
        )
