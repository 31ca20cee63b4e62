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
replays it into any :class:`~repro.core.base.DemuxAlgorithm`.  The
paired before/after cost is the ``smp-sweep``'s to measure: its batch-1
and largest-batch cells replay one recorded stream unbatched and
batched (:mod:`repro.smp.sweep`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..core.base import DemuxAlgorithm
from ..core.stats import PacketKind
from ..packet.addresses import FourTuple

__all__ = ["BatchCoalescer"]

#: One inbound packet, as recorded by :mod:`repro.workload.record`.
Packet = Tuple[FourTuple, PacketKind]


class BatchCoalescer:
    """Buffer arrivals into batches; sort each batch by flow key.

    ``batch_size=1`` degenerates to pass-through delivery in arrival
    order, which is the honest baseline: batching without reordering
    cannot change what a demux structure examines.
    """

    def __init__(
        self,
        algorithm: DemuxAlgorithm,
        batch_size: int = 32,
        *,
        spans: Optional[object] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.algorithm = algorithm
        self.batch_size = batch_size
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
            if len(batch) > 1:
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
            if len(batch) > 1:
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
