"""Batched lookups on the fast path.

Every public ``lookup`` pays the template-method toll: an attribute
load for the profiler, one for the tracer, and one statistics update.
Those costs are per *call*, not per packet, so a NIC-style coalesced
batch amortizes them: :meth:`~repro.core.base.DemuxAlgorithm.
lookup_batch` resolves the whole batch in ``_lookup_batch`` (the fast
structures run fused loops there) and then records statistics
and feeds every attached hook once per batch -- with the same results
as the per-call path, hooks attached or not.

:class:`BatchLookupMixin` adds the fast path's own bookkeeping: how
many batches it served (``fastpath_counters``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.base import LookupResult
from ..core.stats import PacketKind
from ..packet.addresses import FourTuple

__all__ = ["BatchLookupMixin", "as_packets"]

#: One inbound packet as the batch API consumes it.
Packet = Tuple[FourTuple, PacketKind]


def as_packets(
    keys: Sequence, kind: PacketKind = PacketKind.DATA
) -> List[Packet]:
    """Adapt a sequence of bare four-tuples (or packets) to packets.

    Convenience for callers holding plain key lists: four-tuples get
    the default ``kind``; ``(tuple, kind)`` pairs pass through.
    """
    packets: List[Packet] = []
    for item in keys:
        if isinstance(item, FourTuple):
            packets.append((item, kind))
        else:
            tup, item_kind = item
            packets.append((tup, item_kind))
    return packets


class BatchLookupMixin:
    """Counts the batches a fast structure serves.

    Mixed in *before* :class:`~repro.core.base.DemuxAlgorithm`; relies
    on the fast path's ``fastpath_counters``.
    """

    def lookup_batch(
        self, packets: Sequence[Packet]
    ) -> List[LookupResult]:
        results = super().lookup_batch(packets)
        counters = self.fastpath_counters
        counters.batch_calls += 1
        counters.batched_lookups += len(results)
        return results
