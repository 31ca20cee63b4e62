"""Per-lookup accounting for demultiplexing algorithms.

The paper's figure of merit is "the expected number of PCBs searched"
(Section 3) -- a surrogate for memory traffic.  Every lookup any
algorithm performs is recorded here, broken down by packet kind (data
vs. transport-level acknowledgement, the split Sections 3.3-3.4 analyze
separately), with a histogram of search lengths so experiments can
report distributions as well as means.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Dict, Iterable, Optional

if TYPE_CHECKING:  # base imports stats; this edge is type-only
    from .base import LookupResult

__all__ = ["PacketKind", "LookupRecord", "KindStats", "DemuxStats"]


class PacketKind(enum.Enum):
    """The two inbound packet classes the paper's analysis distinguishes.

    DATA covers transaction queries (and any segment carrying payload or
    SYN/FIN); ACK is a pure transport-level acknowledgement.
    """

    DATA = "data"
    ACK = "ack"


@dataclasses.dataclass(frozen=True)
class LookupRecord:
    """What one lookup cost: filled in by the algorithm, fed to stats."""

    examined: int
    cache_hit: bool
    found: bool
    kind: PacketKind


@dataclasses.dataclass
class KindStats:
    """Aggregate counters for one packet kind."""

    lookups: int = 0
    examined_total: int = 0
    cache_hits: int = 0
    not_found: int = 0
    max_examined: int = 0
    histogram: Dict[int, int] = dataclasses.field(default_factory=dict)

    def record(self, rec: LookupRecord) -> None:
        self.lookups += 1
        self.examined_total += rec.examined
        if rec.cache_hit:
            self.cache_hits += 1
        if not rec.found:
            self.not_found += 1
        if rec.examined > self.max_examined:
            self.max_examined = rec.examined
        self.histogram[rec.examined] = self.histogram.get(rec.examined, 0) + 1

    @property
    def mean_examined(self) -> float:
        """Mean PCBs examined per lookup (the paper's figure of merit)."""
        return self.examined_total / self.lookups if self.lookups else 0.0

    @property
    def hit_rate(self) -> float:
        """Cache hit fraction.  Section 3.4 warns this is only part of
        the story -- report it next to :attr:`mean_examined`, never
        instead of it."""
        return self.cache_hits / self.lookups if self.lookups else 0.0

    def percentile(self, q: float) -> int:
        """The ``q``-quantile (0..1) of the search-length distribution."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.lookups:
            return 0
        target = q * self.lookups
        running = 0
        for examined in sorted(self.histogram):
            running += self.histogram[examined]
            if running >= target:
                return examined
        return self.max_examined

    def reset(self) -> None:
        """Zero every counter explicitly.

        Field by field, not ``__init__``-based re-initialization, so
        the idiom keeps working as fields are added (dataclass defaults
        are re-evaluated here too -- a shared mutable default would
        otherwise leak across resets).
        """
        self.lookups = 0
        self.examined_total = 0
        self.cache_hits = 0
        self.not_found = 0
        self.max_examined = 0
        self.histogram = {}

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (histogram keys become strings)."""
        return {
            "lookups": self.lookups,
            "examined_total": self.examined_total,
            "cache_hits": self.cache_hits,
            "not_found": self.not_found,
            "max_examined": self.max_examined,
            "mean_examined": self.mean_examined,
            "hit_rate": self.hit_rate,
            "histogram": {
                str(examined): count
                for examined, count in sorted(self.histogram.items())
            },
        }

    def merge(self, other: "KindStats") -> None:
        """Fold ``other``'s counters into this one.

        Safe for cross-process aggregation: merging with an empty side
        (in either direction) is an identity on every counter *and*
        every derived value (mean, hit rate, percentiles), and merging
        two streams is equivalent to having recorded both into one
        object -- the histograms add bucket-wise, so percentiles stay
        exact.  ``other`` is never mutated.
        """
        self.lookups += other.lookups
        self.examined_total += other.examined_total
        self.cache_hits += other.cache_hits
        self.not_found += other.not_found
        self.max_examined = max(self.max_examined, other.max_examined)
        for examined, count in other.histogram.items():
            self.histogram[examined] = self.histogram.get(examined, 0) + count

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "KindStats":
        """Rebuild from an :meth:`as_dict` snapshot (JSON round trip).

        Histogram keys come back as *strings* after a JSON round trip;
        they must be restored to ints here or ``percentile()`` would
        sort them lexically ("10" < "2") and report garbage quantiles.
        This is the supported way to ship statistics across process
        boundaries: workers send ``as_dict()``, the parent rebuilds and
        :meth:`merge`\\ s.
        """
        return cls(
            lookups=int(data["lookups"]),
            examined_total=int(data["examined_total"]),
            cache_hits=int(data["cache_hits"]),
            not_found=int(data["not_found"]),
            max_examined=int(data["max_examined"]),
            histogram={
                int(examined): int(count)
                for examined, count in dict(data["histogram"]).items()
            },
        )


#: Module-level members: reading an enum member off its class goes
#: through ``enum.property`` on 3.11, and hashing one runs
#: ``Enum.__hash__`` in Python.
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK


class DemuxStats:
    """Statistics for one demux algorithm instance, split by packet kind.

    ``by_kind`` maps each kind to its :class:`KindStats`; the same two
    objects live for the instance's whole life (``reset``, ``merge``
    and ``from_dict`` write into them), so the per-lookup accounting
    holds them directly.
    """

    def __init__(self) -> None:
        self._data = KindStats()
        self._ack = KindStats()
        self.by_kind: Dict[PacketKind, KindStats] = {
            _DATA: self._data, _ACK: self._ack,
        }

    def record(self, rec: LookupRecord) -> None:
        self.by_kind[rec.kind].record(rec)

    def accumulate(self, results: Iterable["LookupResult"]) -> None:
        """Fold lookup results into the counters in one pass.

        The accounting routine both lookup paths share: ``lookup``
        passes a one-result tuple, ``lookup_batch`` a whole batch.
        Equivalent to calling :meth:`record` with one
        :class:`LookupRecord` per result, in order (the histograms even
        gain their buckets in the same order), but without building the
        records: counts collect in locals and land once per kind.
        """
        ack_kind = _ACK
        data = self._data
        ack = self._ack
        data_histogram = data.histogram
        ack_histogram = ack.histogram
        data_lookups = data_examined = data_hits = data_misses = 0
        ack_lookups = ack_examined = ack_hits = ack_misses = 0
        data_max = data.max_examined
        ack_max = ack.max_examined
        for result in results:
            examined = result.examined
            if result.kind is ack_kind:
                ack_lookups += 1
                ack_examined += examined
                if result.cache_hit:
                    ack_hits += 1
                if result.pcb is None:
                    ack_misses += 1
                if examined > ack_max:
                    ack_max = examined
                ack_histogram[examined] = ack_histogram.get(examined, 0) + 1
            else:
                data_lookups += 1
                data_examined += examined
                if result.cache_hit:
                    data_hits += 1
                if result.pcb is None:
                    data_misses += 1
                if examined > data_max:
                    data_max = examined
                data_histogram[examined] = data_histogram.get(examined, 0) + 1
        data.lookups += data_lookups
        data.examined_total += data_examined
        data.cache_hits += data_hits
        data.not_found += data_misses
        data.max_examined = data_max
        ack.lookups += ack_lookups
        ack.examined_total += ack_examined
        ack.cache_hits += ack_hits
        ack.not_found += ack_misses
        ack.max_examined = ack_max

    def reset(self) -> None:
        """Zero all counters (e.g. after a warm-up phase)."""
        for stats in self.by_kind.values():
            stats.reset()

    def merge(self, other: "DemuxStats") -> None:
        """Fold ``other`` into this one, kind by kind.

        The cross-shard / cross-process aggregation primitive: shard
        statistics (or per-worker snapshots rebuilt with
        :meth:`from_dict`) merge into one object whose means, hit
        rates, and percentiles equal those of a single combined stream.
        """
        self._data.merge(other._data)
        self._ack.merge(other._ack)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DemuxStats":
        """Rebuild from an :meth:`as_dict` snapshot (JSON round trip)."""
        stats = cls()
        by_kind = dict(data["by_kind"])
        for kind, target in stats.by_kind.items():
            if kind.value in by_kind:
                target.merge(KindStats.from_dict(by_kind[kind.value]))
        return stats

    # -- aggregate views -----------------------------------------------

    @property
    def lookups(self) -> int:
        return sum(s.lookups for s in self.by_kind.values())

    @property
    def examined_total(self) -> int:
        return sum(s.examined_total for s in self.by_kind.values())

    @property
    def cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.by_kind.values())

    @property
    def mean_examined(self) -> float:
        return self.examined_total / self.lookups if self.lookups else 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.lookups if self.lookups else 0.0

    def kind(self, kind: PacketKind) -> KindStats:
        return self.by_kind[kind]

    def combined(self) -> KindStats:
        """All kinds merged into one :class:`KindStats`."""
        merged = KindStats()
        for stats in self.by_kind.values():
            merged.merge(stats)
        return merged

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot, per kind plus the aggregate view.

        This (together with :meth:`repro.core.base.DemuxAlgorithm.
        metrics`, which reports the same counters to a metrics
        registry) is the supported way to export statistics -- the
        counting convention itself stays pinned in
        :mod:`repro.core.base`.
        """
        return {
            "lookups": self.lookups,
            "examined_total": self.examined_total,
            "cache_hits": self.cache_hits,
            "mean_examined": self.mean_examined,
            "hit_rate": self.hit_rate,
            "by_kind": {
                kind.value: stats.as_dict()
                for kind, stats in self.by_kind.items()
            },
        }

    def summary(self, label: Optional[str] = None) -> str:
        """One-line human-readable summary."""
        prefix = f"{label}: " if label else ""
        data = self._data
        ack = self._ack
        return (
            f"{prefix}{self.lookups} lookups,"
            f" mean examined {self.mean_examined:.2f}"
            f" (data {data.mean_examined:.2f} over {data.lookups},"
            f" ack {ack.mean_examined:.2f} over {ack.lookups}),"
            f" hit rate {self.hit_rate:.2%}"
        )
