"""Interrupt-coalescing batches that manufacture packet trains.

The paper's TPC/A analysis hinges on OLTP traffic being *train-free*:
with thousands of interleaved connections, consecutive packets almost
never share a PCB, so single-entry caches idle.  Interrupt coalescing
changes the arrival texture: the NIC delivers packets in batches, and
inside a batch the host may process them in any order.  Sorting each
batch by connection key groups a flow's packets back-to-back --
synthetic trains -- so the second and later packets of a flow in the
batch hit the BSD/Sequent single-entry caches instead of re-scanning
(Wu et al. exploit the same window to re-sort reordered packets).

:class:`BatchCoalescer` buffers ``(four_tuple, kind)`` arrivals, sorts
each full batch by the flow key (Python's stable sort keeps a flow's
packets in arrival order, so ACK-follows-DATA ordering survives), and
replays it into any :class:`~repro.core.base.DemuxAlgorithm`.
:func:`measure_coalescing` runs the same recorded stream unbatched and
batched against fresh structures and reports the before/after cost --
the paired comparison the sweep and benchmarks assert on.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.base import DemuxAlgorithm
from ..core.pcb import PCB
from ..core.stats import PacketKind
from ..packet.addresses import FourTuple

__all__ = ["BatchCoalescer", "CoalesceComparison", "measure_coalescing"]

#: One inbound packet, as recorded by :mod:`repro.workload.record`.
Packet = Tuple[FourTuple, PacketKind]


class BatchCoalescer:
    """Buffer arrivals into batches; sort each batch by flow key.

    ``batch_size=1`` (or ``sort=False``) degenerates to pass-through
    delivery in arrival order, which is the honest baseline: batching
    without reordering cannot change what a demux structure examines.
    """

    def __init__(
        self,
        algorithm: DemuxAlgorithm,
        batch_size: int = 32,
        *,
        sort: bool = True,
        spans: Optional[object] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.algorithm = algorithm
        self.batch_size = batch_size
        self.sort = sort
        #: Optional :class:`repro.obs.SpanCollector`.  Spans open at
        #: *flush* time: span (and packet-observer) order is delivery
        #: order, which is what the train-ness detector must see --
        #: coalescing exists precisely to change that order.
        self.spans = spans
        self._buffer: List[Packet] = []
        self._arrivals: List[float] = []
        #: Batches delivered so far.
        self.batches_flushed = 0
        #: Packets delivered so far.
        self.packets_delivered = 0
        #: Lookups that followed a same-flow packet within one batch --
        #: the synthetic-train opportunities sorting created.
        self.train_followers = 0

    def offer(self, tup: FourTuple, kind: PacketKind = PacketKind.DATA) -> None:
        """Accept one arrival; deliver the batch when it fills."""
        if self.spans is not None:
            self._arrivals.append(self.spans.now())
        self._buffer.append((tup, kind))
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def flush(self) -> int:
        """Deliver whatever is buffered; returns packets delivered."""
        batch = self._buffer
        if not batch:
            return 0
        self._buffer = []
        spans = self.spans
        if spans is None:
            if self.sort and len(batch) > 1:
                batch.sort(key=lambda packet: packet[0].key_bits())
            previous = None
            for tup, _ in batch:
                if tup == previous:
                    self.train_followers += 1
                previous = tup
            # One batched call instead of a per-packet loop: the default
            # lookup_batch is exactly that loop, and fast/sharded
            # structures amortize it without changing any decision.
            self.algorithm.lookup_batch(batch)
        else:
            arrivals = self._arrivals
            self._arrivals = []
            if self.sort and len(batch) > 1:
                # Index sort: sorted() is stable with the same key as
                # list.sort above, so delivery order is identical to
                # the span-less path -- arrivals just ride along.
                order = sorted(
                    range(len(batch)),
                    key=lambda i: batch[i][0].key_bits(),
                )
                batch = [batch[i] for i in order]
                arrivals = [arrivals[i] for i in order]
            batch_id = self.batches_flushed
            previous = None
            for (tup, kind), arrived in zip(batch, arrivals):
                follower = tup == previous
                if follower:
                    self.train_followers += 1
                previous = tup
                spans.open_packet(tup, kind, owner="coalesce")
                spans.stage(
                    "coalesce",
                    batch=batch_id,
                    size=len(batch),
                    follower=follower,
                    enqueued_at=arrived,
                )
                # Per-packet delivery: each packet's span carries its
                # own coalesce stage, so the coalescer keeps one packet
                # context per lookup (lookup_batch, spans attached or
                # not, would give the same decisions).
                self.algorithm.lookup(tup, kind)
                spans.close_packet("coalesce")
        self.batches_flushed += 1
        self.packets_delivered += len(batch)
        return len(batch)

    def replay(self, packets: Iterable[Packet]) -> None:
        """Offer a whole recorded stream, flushing the final partial batch."""
        for tup, kind in packets:
            self.offer(tup, kind)
        self.flush()


@dataclasses.dataclass(frozen=True)
class CoalesceComparison:
    """Paired before/after cost of coalescing one packet stream."""

    algorithm: str
    batch_size: int
    packets: int
    unbatched_mean_examined: float
    batched_mean_examined: float
    unbatched_hit_rate: float
    batched_hit_rate: float
    train_followers: int

    @property
    def reduction(self) -> float:
        """Fractional drop in mean PCBs examined (positive = batching won)."""
        if not self.unbatched_mean_examined:
            return 0.0
        return 1.0 - self.batched_mean_examined / self.unbatched_mean_examined

    def as_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "batch_size": self.batch_size,
            "packets": self.packets,
            "unbatched_mean_examined": round(self.unbatched_mean_examined, 4),
            "batched_mean_examined": round(self.batched_mean_examined, 4),
            "unbatched_hit_rate": round(self.unbatched_hit_rate, 4),
            "batched_hit_rate": round(self.batched_hit_rate, 4),
            "train_followers": self.train_followers,
            "reduction": round(self.reduction, 4),
        }

    def summary(self) -> str:
        return (
            f"{self.algorithm} B={self.batch_size}:"
            f" {self.unbatched_mean_examined:.2f} ->"
            f" {self.batched_mean_examined:.2f} PCBs/pkt"
            f" ({self.reduction:+.1%}, {self.train_followers} train followers)"
        )


def _populate(algorithm: DemuxAlgorithm, tuples: Sequence[FourTuple]) -> None:
    for tup in tuples:
        algorithm.insert(PCB(tup))


def measure_coalescing(
    algorithm_factory: Callable[[], DemuxAlgorithm],
    tuples: Sequence[FourTuple],
    packets: Sequence[Packet],
    batch_size: int,
    *,
    sort: bool = True,
) -> CoalesceComparison:
    """Replay ``packets`` unbatched and batched; report both costs.

    Both arms get a fresh structure from ``algorithm_factory`` with the
    same ``tuples`` installed, so the comparison is paired: the only
    difference is delivery order inside each batch.
    """
    baseline = algorithm_factory()
    _populate(baseline, tuples)
    for tup, kind in packets:
        baseline.lookup(tup, kind)

    batched = algorithm_factory()
    _populate(batched, tuples)
    coalescer = BatchCoalescer(batched, batch_size, sort=sort)
    coalescer.replay(packets)

    return CoalesceComparison(
        algorithm=baseline.name,
        batch_size=batch_size,
        packets=len(packets),
        unbatched_mean_examined=baseline.stats.mean_examined,
        batched_mean_examined=batched.stats.mean_examined,
        unbatched_hit_rate=baseline.stats.hit_rate,
        batched_hit_rate=batched.stats.hit_rate,
        train_followers=coalescer.train_followers,
    )
