"""Unit tests for the fast-path building blocks.

The golden and differential suites prove the assembled structures are
decision-identical; these tests pin the pieces those suites build on --
key interning, flat slot tables, single-entry cache slots, the fast
structures' batch counters and hooks, and the metrics exporter -- plus
the base-class default ``lookup_batch`` every reference algorithm
inherits.
"""

from __future__ import annotations

import pytest

from repro.core.linear import LinearDemux
from repro.core.pcb import PCB
from repro.core.stats import PacketKind
from repro.fastpath.algorithms import FastBSDDemux, FastSequentDemux
from repro.fastpath.keycache import FastpathCounters, KeyCache
from repro.fastpath.tables import CachedSlot, MTFSlotTable, SlotTable
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import LookupProfiler
from repro.obs.trace import RingBufferSink, Tracer

from conftest import make_tuple


def data_packets(tuples):
    """DATA packets for ``tuples``, the batch API's input."""
    return [(tup, PacketKind.DATA) for tup in tuples]


class TestKeyCache:
    def test_interns_once_and_counts_hits(self):
        cache = KeyCache()
        tup = make_tuple(0)
        key, chain = cache.entry(tup)
        assert key == tup.key_bits()
        assert chain == 0
        assert cache.entry(tup) == (key, chain)
        assert cache.counters.interned_keys == 1
        assert cache.counters.key_cache_hits == 1
        assert len(cache) == 1

    def test_chain_fn_runs_once_per_distinct_tuple(self):
        calls = []

        def chain_fn(tup):
            calls.append(tup)
            return 3

        cache = KeyCache(chain_fn)
        tup = make_tuple(1)
        cache.entry(tup)  # the insert path interns (and hashes once)
        assert cache.chain_of(tup) == 3
        assert cache.chain_of(tup) == 3
        assert cache.key_of(tup) == tup.key_bits()
        assert len(calls) == 1  # memoized: the hash ran exactly once

    def test_probe_does_not_intern(self):
        cache = KeyCache()
        tup = make_tuple(2)
        key, chain = cache.probe(tup)
        assert (key, chain) == (tup.key_bits(), 0)
        assert len(cache) == 0
        assert cache.counters.transient_probes == 1
        # Interned tuples probe through the memo.
        cache.entry(tup)
        cache.probe(tup)
        assert cache.counters.key_cache_hits == 1

    def test_inspection_reads_count_nothing(self):
        cache = KeyCache(lambda tup: 3)
        live, absent = make_tuple(4), make_tuple(5)
        cache.entry(live)
        before = cache.counters.as_dict()
        for tup in (live, absent):
            assert cache.chain_of(tup) == 3
            assert cache.key_of(tup) == tup.key_bits()
        assert cache.counters.as_dict() == before
        assert len(cache) == 1

    def test_evict_drops_entry_and_counts(self):
        cache = KeyCache()
        tup = make_tuple(3)
        cache.entry(tup)
        assert cache.evict(tup)
        assert len(cache) == 0
        assert cache.counters.evicted_keys == 1
        assert not cache.evict(tup)  # idempotent
        assert cache.counters.evicted_keys == 1

    def test_shared_counters_object(self):
        counters = FastpathCounters()
        cache = KeyCache(counters=counters)
        cache.entry(make_tuple(0))
        assert counters.interned_keys == 1
        assert counters.as_dict() == {
            "interned_keys": 1,
            "key_cache_hits": 0,
            "evicted_keys": 0,
            "transient_probes": 0,
            "batch_calls": 0,
            "batched_lookups": 0,
        }


class TestOverloadCheck:
    """``fast-sequent``'s overload check reads the chain its insert
    interned into; it does not probe the intern table again."""

    def build(self, threshold):
        demux = FastSequentDemux(7, overload_threshold=threshold)
        for i in range(100):
            demux.insert(PCB(make_tuple(i)))
        return demux

    def test_counters_match_without_threshold(self):
        plain, checked = self.build(None), self.build(4)
        assert checked.chain_overload_events > 0
        assert (
            checked.fastpath_counters.as_dict()
            == plain.fastpath_counters.as_dict()
        )
        assert checked.fastpath_counters.key_cache_hits == 0

    def test_chain_of_leaves_counters_unchanged(self):
        demux = self.build(4)
        before = demux.fastpath_counters.as_dict()
        demux.chain_of(make_tuple(0))  # live
        demux.chain_of(make_tuple(500))  # never inserted
        assert demux.fastpath_counters.as_dict() == before


class TestSlotTable:
    """Keys are pushed in descending order, as an ordinal intern table
    hands them out, so the ordered table stays ascending."""

    def test_scan_follows_counting_convention(self):
        table = SlotTable()
        pcbs = [PCB(make_tuple(i)) for i in range(3)]
        for key, pcb in enumerate(pcbs, start=1):
            table.push_front(-key, pcb)
        # Head-first: last insert sits at index 0.
        index, examined = table.scan(-3)
        assert (index, examined) == (0, 1)
        index, examined = table.scan(-1)
        assert (index, examined) == (2, 3)
        # Miss examines the whole table.
        index, examined = table.scan(-99)
        assert (index, examined) == (-1, 3)

    def test_parallel_arrays_stay_aligned(self):
        pcbs = [PCB(make_tuple(i)) for i in range(4)]
        key_of = {pcb: -key for key, pcb in enumerate(pcbs, start=1)}
        for table in (SlotTable(), MTFSlotTable()):
            for pcb in pcbs:
                table.push_front(key_of[pcb], pcb)
            if isinstance(table, MTFSlotTable):
                table.move_to_front(2)
            table.remove_key(key_of[pcbs[0]])
            assert len(table.keys) == len(table.pcbs) == 3
            for key, pcb in zip(table.keys, table.pcbs):
                assert key == key_of[pcb]

    def test_move_to_front_of_head_is_noop(self):
        table = MTFSlotTable()
        pcb = PCB(make_tuple(0))
        table.push_front(-1, pcb)
        table.move_to_front(0)
        assert table.pcbs == [pcb]

    def test_remove_absent_key_raises(self):
        with pytest.raises(ValueError):
            SlotTable().remove_key(12345)


class TestCachedSlot:
    def test_lifecycle(self):
        slot = CachedSlot()
        assert slot.key is None and slot.pcb is None
        pcb = PCB(make_tuple(0))
        slot.set(7, pcb)
        assert (slot.key, slot.pcb) == (7, pcb)
        slot.invalidate_if(8)  # different key: untouched
        assert slot.key == 7
        slot.invalidate_if(7)
        assert slot.key is None and slot.pcb is None


class TestBatchMixin:
    def build(self, n=6):
        demux = FastSequentDemux(3)
        for i in range(n):
            demux.insert(PCB(make_tuple(i)))
        return demux

    def test_counters_track_batches(self):
        demux = self.build()
        packets = data_packets([make_tuple(i) for i in range(6)])
        demux.lookup_batch(packets)
        demux.lookup_batch(packets[:2])
        assert demux.fastpath_counters.batch_calls == 2
        assert demux.fastpath_counters.batched_lookups == 8
        assert demux.stats.lookups == 8

    def test_tracer_rides_the_batched_path(self):
        packets = data_packets([make_tuple(i) for i in range(4)])
        sinks = []
        for batched in (False, True):
            demux = self.build()
            sinks.append(RingBufferSink())
            demux.tracer = Tracer(sinks[-1])
            if batched:
                results = demux.lookup_batch(packets)
            else:
                results = [demux.lookup(tup, kind) for tup, kind in packets]
            assert len(results) == 4
            assert demux.stats.lookups == 4
        # The batched call emits the per-call path's events, in order...
        assert sinks[1].events == sinks[0].events
        assert len(sinks[1].events) == 4
        # ...and counts as one amortized batch.
        assert demux.fastpath_counters.batch_calls == 1
        assert demux.fastpath_counters.batched_lookups == 4

    def test_disabled_tracer_keeps_fast_path(self):
        demux = self.build()
        demux.tracer = Tracer(RingBufferSink(), enabled=False)
        demux.lookup_batch(data_packets([make_tuple(0)]))
        assert demux.fastpath_counters.batch_calls == 1

    def test_profiler_rides_the_batched_path(self):
        packets = data_packets([make_tuple(i) for i in range(3)])
        per_call = self.build()
        reference = LookupProfiler(sample_every=2).attach(per_call)
        for tup, kind in packets:
            per_call.lookup(tup, kind)
        demux = self.build()
        profiler = LookupProfiler(sample_every=2).attach(demux)
        demux.lookup_batch(packets)
        # Same lookup and sample counts as the per-call path...
        assert (profiler.lookups, profiler.samples) == (3, 1)
        assert (reference.lookups, reference.samples) == (3, 1)
        assert demux.stats.as_dict() == per_call.stats.as_dict()
        # ...in one amortized batch.
        assert demux.fastpath_counters.batch_calls == 1
        profiler.detach(demux)
        demux.lookup_batch(data_packets([make_tuple(0)]))
        assert demux.fastpath_counters.batch_calls == 2
        assert profiler.lookups == 3


class TestDefaultLookupBatch:
    def test_reference_algorithms_inherit_the_loop(self, any_algorithm):
        pcbs = [PCB(make_tuple(i)) for i in range(5)]
        for pcb in pcbs:
            any_algorithm.insert(pcb)
        packets = [(pcb.four_tuple, PacketKind.DATA) for pcb in pcbs]
        results = any_algorithm.lookup_batch(packets)
        assert [r.pcb for r in results] == pcbs
        assert any_algorithm.stats.lookups == len(pcbs)


class TestPublishFastpath:
    """A fast structure's ``metrics()`` adds its fast-path counters."""

    def test_exports_counters_as_gauges(self):
        demux = FastBSDDemux()
        demux.insert(PCB(make_tuple(0)))
        demux.lookup_batch(data_packets([make_tuple(0), make_tuple(0)]))
        registry = MetricsRegistry()
        registry.publish(demux)
        gauge = registry.gauge("fastpath_counters")
        assert gauge.value(algorithm="fast-bsd", counter="batch_calls") == 1
        assert gauge.value(algorithm="fast-bsd", counter="batched_lookups") == 2

    def test_reference_algorithm_is_a_noop(self):
        registry = MetricsRegistry()
        registry.publish(LinearDemux())
        assert "fastpath_counters" not in registry
        assert all(name.startswith("demux_") for name in registry.snapshot())

    def test_sharded_fast_exports_per_shard(self):
        from repro.core.registry import make_algorithm

        demux = make_algorithm("sharded-fast-sequent:shards=2,h=5")
        for i in range(4):
            demux.insert(PCB(make_tuple(i)))
        demux.lookup_batch(data_packets([make_tuple(i) for i in range(4)]))
        registry = MetricsRegistry()
        registry.publish(demux)
        shards = {
            sample["labels"]["shard"]
            for sample in registry.snapshot()[
                "fastpath_shard_counters"
            ]["samples"]
        }
        assert shards == {"0", "1"}
