"""Tests for interrupt-coalescing batch delivery."""

import pytest

from repro.core.bsd import BSDDemux
from repro.core.pcb import PCB
from repro.core.sequent import SequentDemux
from repro.core.stats import PacketKind
from repro.packet.addresses import FourTuple, IPv4Address
from repro.smp import BatchCoalescer

SERVER = IPv4Address("10.0.0.1")


def tuple_for(index: int) -> FourTuple:
    return FourTuple(SERVER, 1521, IPv4Address("10.7.0.0") + index, 40000 + index)


def populated(factory, n):
    demux = factory()
    for i in range(n):
        demux.insert(PCB(tuple_for(i)))
    return demux


def interleaved_pairs(n, lag=8):
    """Blocks of ``lag`` flows: all their DATAs, then all their ACKs.
    No two consecutive packets share a flow (zero natural trains), but
    a flow's pair sits within ``2 * lag`` packets, so any batch of at
    least that size can reunite it by sorting."""
    packets = []
    for start in range(0, n, lag):
        block = range(start, min(start + lag, n))
        packets += [(tuple_for(i), PacketKind.DATA) for i in block]
        packets += [(tuple_for(i), PacketKind.ACK) for i in block]
    return packets


class TestBatchCoalescer:
    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            BatchCoalescer(BSDDemux(), 0)

    def test_passthrough_batch_one_matches_direct_delivery(self):
        packets = interleaved_pairs(12)
        direct = populated(BSDDemux, 12)
        for tup, kind in packets:
            direct.lookup(tup, kind)
        batched = populated(BSDDemux, 12)
        BatchCoalescer(batched, 1).replay(packets)
        assert (
            batched.stats.combined().histogram
            == direct.stats.combined().histogram
        )

    def test_sorting_counts_train_followers(self):
        demux = populated(BSDDemux, 6)
        coalescer = BatchCoalescer(demux, batch_size=12)
        coalescer.replay(interleaved_pairs(6))
        # Every flow's ACK directly follows its DATA in the sorted batch.
        assert coalescer.train_followers == 6
        assert coalescer.batches_flushed == 1
        assert coalescer.packets_delivered == 12

    def test_sort_is_stable_within_flow(self):
        """Arrival order inside one flow survives the sort (stable key)."""
        demux = populated(SequentDemux, 1)
        coalescer = BatchCoalescer(demux, batch_size=4)
        tup = tuple_for(0)
        coalescer.replay(
            [
                (tup, PacketKind.DATA),
                (tup, PacketKind.ACK),
                (tup, PacketKind.DATA),
                (tup, PacketKind.ACK),
            ]
        )
        stats = demux.stats
        # First packet scans, the other three hit the single-entry cache.
        assert stats.cache_hits == 3
        assert coalescer.train_followers == 3

    def test_flush_partial_batch(self):
        demux = populated(BSDDemux, 4)
        coalescer = BatchCoalescer(demux, batch_size=100)
        for tup, kind in interleaved_pairs(4):
            coalescer.offer(tup, kind)
        assert demux.stats.lookups == 0  # still buffered
        assert coalescer.flush() == 8
        assert demux.stats.lookups == 8
        assert coalescer.flush() == 0  # idempotent on empty buffer


class TestMeasureCoalescing:
    """The paired comparison ``smp-sweep``'s batch-1 and top-batch cells
    make: one stream, unbatched and sorted into batches."""

    @pytest.mark.parametrize(
        "factory", [BSDDemux, lambda: SequentDemux(5)]
    )
    def test_sorted_batches_strictly_reduce_examined(self, factory):
        packets = interleaved_pairs(40)
        unbatched = populated(factory, 40)
        for tup, kind in packets:
            unbatched.lookup(tup, kind)
        batched = populated(factory, 40)
        coalescer = BatchCoalescer(batched, batch_size=16)
        coalescer.replay(packets)
        assert batched.stats.mean_examined < unbatched.stats.mean_examined
        assert coalescer.train_followers > 0
        assert batched.stats.hit_rate > unbatched.stats.hit_rate
