"""Each live connection is hashed once, when it is inserted.

Packets of live flows take their shard from the sharded facade's
flow-director table and their cuckoo buckets from the spread memoized
in the flow's intern entry.  These tests count calls -- to the
steering hash (or to the sticky director's ``shard_of``) and to
``repro.fastpath.cuckoo._spread`` -- around replays of live-flow and
unknown-tuple lookups, per call and through ``lookup_batch``.  A
remove releases the flow's intern entry in one dict operation, so it
hashes the removed four-tuple once.  Churn tuples of one connection
share their address objects, so the dicts keyed by them compare
no address in Python.
"""

import dataclasses

import pytest

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.fastpath import FastCuckooDemux, conformance, cuckoo
from repro.fastpath.conformance import churn_tuple, stray_tuple
from repro.hashing import default_hash
from repro.packet.addresses import FourTuple, IPv4Address
from repro.recovery import ShardSupervisor
from repro.smp import HashSteering, ShardedDemux, StickyFlowSteering

FLOWS = 60

#: ``None`` replays packet by packet; a number is a ``lookup_batch``
#: chunk size.
MODES = [None, 1, 7, 256]


class CallCounter:
    """A function wrapper that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def live_packets(count=300):
    return [
        (churn_tuple(i % FLOWS), PacketKind.DATA if i % 3 else PacketKind.ACK)
        for i in range(count)
    ]


def unknown_packets(count=40):
    """Never-inserted tuples, each arriving twice."""
    return [(stray_tuple(i % (count // 2)), PacketKind.DATA) for i in range(count)]


def replay(algorithm, packets, mode):
    if mode is None:
        return [algorithm.lookup(tup, kind) for tup, kind in packets]
    results = []
    for start in range(0, len(packets), mode):
        results += algorithm.lookup_batch(packets[start:start + mode])
    return results


def populate(algorithm):
    for index in range(FLOWS):
        algorithm.insert(PCB(churn_tuple(index)))


def hash_sharded(inner_spec="fast-sequent:h=19"):
    """A 4-shard hash-steered facade whose hash function is counted."""
    counted = CallCounter(default_hash)
    sharded = ShardedDemux(
        lambda: make_algorithm(inner_spec), 4, HashSteering(counted)
    )
    return sharded, counted


@pytest.fixture
def spreads(monkeypatch):
    counted = CallCounter(cuckoo._spread)
    monkeypatch.setattr(cuckoo, "_spread", counted)
    return counted


class TestShardedSteering:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("inner", ["fast-sequent:h=19", "fast-cuckoo"])
    def test_live_flows_read_the_director_table(self, inner, mode, spreads):
        sharded, steered = hash_sharded(inner)
        populate(sharded)
        assert steered.calls == FLOWS  # one steering decision per insert
        steered.calls = spreads.calls = 0
        results = replay(sharded, live_packets(), mode)
        assert all(result.found for result in results)
        assert steered.calls == 0
        assert spreads.calls == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_unknown_tuples_are_steered_once_per_packet(self, mode):
        sharded, steered = hash_sharded()
        populate(sharded)
        steered.calls = 0
        packets = unknown_packets()
        results = replay(sharded, packets, mode)
        assert not any(result.found for result in results)
        assert steered.calls == len(packets)

    @pytest.mark.parametrize("mode", MODES)
    def test_supervised_live_flows_hash_nothing(self, mode):
        sharded, steered = hash_sharded()
        supervisor = ShardSupervisor(sharded, checkpoint_every=100)
        populate(supervisor)
        steered.calls = 0
        results = replay(supervisor, live_packets(), mode)
        assert all(result.found for result in results)
        assert steered.calls == 0
        # An unknown tuple is routed by the supervisor (dead and
        # stalled shards, delta log) and again by the facade.
        packets = unknown_packets()
        replay(supervisor, packets, mode)
        assert steered.calls == 2 * len(packets)

    @pytest.mark.parametrize("mode", MODES)
    def test_resteered_flows_read_their_new_home(self, mode, monkeypatch):
        steering = StickyFlowSteering()
        sharded = ShardedDemux(
            lambda: make_algorithm("fast-sequent:h=19"), 4, steering
        )
        supervisor = ShardSupervisor(sharded, checkpoint_every=0)
        populate(supervisor)
        victim = sharded.shard_of(churn_tuple(0))
        supervisor.crash_shard(victim)
        assert supervisor.lookup(churn_tuple(0), PacketKind.DATA).found
        assert [event.mode for event in supervisor.events] == ["resteer"]
        assert sharded.shard_of(churn_tuple(0)) != victim
        counted = CallCounter(steering.shard_of)
        monkeypatch.setattr(steering, "shard_of", counted)
        results = replay(supervisor, live_packets(), mode)
        assert all(result.found for result in results)
        assert counted.calls == 0


class TestCuckooSpread:
    def test_insert_and_remove_spread_once_per_connection(self, spreads):
        # Sparse enough that no insert kicks a victim or resizes: both
        # re-spread keys held without their tuple.
        demux = FastCuckooDemux(buckets=64)
        populate(demux)
        assert demux.cuckoo_counters.kickouts == 0
        assert demux.cuckoo_counters.resizes == 0
        assert spreads.calls == FLOWS
        spreads.calls = 0
        for index in range(FLOWS):
            demux.remove(churn_tuple(index))
        assert spreads.calls == 0
        assert demux.interned_entries == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_live_lookups_spread_nothing(self, mode, spreads):
        demux = make_algorithm("fast-cuckoo")
        populate(demux)
        spreads.calls = 0
        results = replay(demux, live_packets(), mode)
        assert all(result.found for result in results)
        assert spreads.calls == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_unknown_tuples_spread_once_per_packet(self, mode, spreads):
        demux = make_algorithm("fast-cuckoo")
        populate(demux)
        spreads.calls = 0
        packets = unknown_packets()
        results = replay(demux, packets, mode)
        assert not any(result.found for result in results)
        assert spreads.calls == len(packets)
        assert demux.interned_entries == FLOWS


@pytest.fixture
def address_hashes(monkeypatch):
    """Count ``IPv4Address.__hash__`` calls; a four-tuple hash makes two."""
    real_hash = IPv4Address.__hash__
    counted = CallCounter(real_hash)

    def counting_hash(self):
        return counted(self)

    monkeypatch.setattr(IPv4Address, "__hash__", counting_hash)
    hash(churn_tuple(0))
    assert counted.calls == 2
    counted.calls = 0
    return counted


class TestRemoveHashesOnce:
    @pytest.mark.parametrize("spec", ["fast-sequent:h=19", "fast-cuckoo"])
    def test_present_remove_hashes_the_tuple_once(self, spec, address_hashes):
        demux = make_algorithm(spec)
        populate(demux)
        address_hashes.calls = 0
        for index in range(FLOWS):
            # A fresh, equal tuple, as churn and serve pass in.
            demux.remove(churn_tuple(index))
        assert address_hashes.calls == 2 * FLOWS
        assert demux.interned_entries == 0

    @pytest.mark.parametrize("spec", ["fast-sequent:h=19", "fast-cuckoo"])
    def test_remove_counts_as_probe_then_evict(self, spec):
        demux = make_algorithm(spec)
        populate(demux)
        counters = demux.fastpath_counters
        before = dataclasses.replace(counters)
        demux.remove(churn_tuple(0))
        assert counters == dataclasses.replace(
            before,
            key_cache_hits=before.key_cache_hits + 1,
            evicted_keys=before.evicted_keys + 1,
        )
        before = dataclasses.replace(counters)
        with pytest.raises(KeyError):
            demux.remove(churn_tuple(0))
        assert counters == dataclasses.replace(
            before, transient_probes=before.transient_probes + 1
        )

    @pytest.mark.parametrize("spec", ["fast-sequent:h=19", "fast-cuckoo"])
    def test_release_equals_probe_then_evict(self, spec):
        released, probed = make_algorithm(spec), make_algorithm(spec)
        populate(released)
        populate(probed)
        for tup in (churn_tuple(3), stray_tuple(3)):
            pair = released._keycache.release(tup)
            assert pair == probed._keycache.probe(tup)
            probed._keycache.evict(tup)
            assert tup not in released._keycache
            assert len(released._keycache) == len(probed._keycache)
            assert released.fastpath_counters == probed.fastpath_counters


@pytest.fixture
def address_compares(monkeypatch):
    """Count ``IPv4Address.__eq__`` calls."""
    counted = CallCounter(IPv4Address.__eq__)

    def counting_eq(self, other):
        return counted(self, other)

    monkeypatch.setattr(IPv4Address, "__eq__", counting_eq)
    # Equal tuples with distinct address objects compare in Python.
    fresh = [FourTuple("10.0.0.1", 80, "10.0.0.2", 4000) for _ in range(2)]
    assert fresh[0] == fresh[1]
    assert counted.calls == 2
    counted.calls = 0
    return counted


class TestSharedAddresses:
    @pytest.mark.parametrize("spec", ["fast-sequent:h=19", "fast-cuckoo"])
    def test_batched_churn_replay_compares_no_address(
        self, spec, address_compares
    ):
        ops = conformance.walk_ops(conformance.churn_ops(5, steps=3000))
        decisions, _ = conformance.replay(
            make_algorithm(spec), ops, chunk=64, batched=True
        )
        assert any(found for found, _, _ in decisions)
        assert address_compares.calls == 0
