"""Tests for the fault injector and FaultyLink."""

import pytest

from repro.faults.config import parse_fault_spec
from repro.faults.injector import FaultInjector, FaultyLink
from repro.faults.models import Corrupt, Duplicate, GilbertElliottLoss, IIDLoss, Reorder
from repro.packet.addresses import FourTuple
from repro.packet.builder import make_data, parse_packet
from repro.packet.ip import PacketError
from repro.sim.engine import Simulator

TUP = FourTuple.create("10.0.0.1", 80, "10.0.1.1", 45000)


def packet(n=0):
    return make_data(TUP, b"payload", seq=n, ack=1)


class TestInjectorPipeline:
    def test_counters_and_counts(self):
        sim = Simulator()
        injector = FaultInjector(
            sim, [IIDLoss(1.0), Duplicate(1.0), Corrupt(1.0)], seed=3
        )
        injector.judge(packet())
        assert injector.packets_seen == 1
        assert injector.packets_dropped == 1
        # Drop wins: downstream models never touch the packet.
        assert injector.packets_duplicated == 0
        assert injector.counts == {("loss", "drop"): 1}

    def test_non_drop_actions_counted(self):
        sim = Simulator()
        injector = FaultInjector(
            sim, [Reorder(1.0, spike=0.01), Duplicate(1.0), Corrupt(1.0)],
            seed=3,
        )
        plan = injector.judge(packet())
        assert plan.extra_delay > 0 and plan.duplicates == 1
        assert plan.corrupt_bits == 1
        assert injector.counts == {
            ("reorder", "delay"): 1,
            ("dup", "duplicate"): 1,
            ("corrupt", "bitflip"): 1,
        }

    def test_models_get_independent_streams(self):
        sim = Simulator()
        injector = FaultInjector(sim, [IIDLoss(0.5), IIDLoss(0.5)], seed=9)
        a, b = injector.models
        assert a.rng is not b.rng
        assert a.rng.random() != b.rng.random()


class TestDeterminism:
    """Identical (seed, config) must replay a byte-identical schedule."""

    SPEC = "ge=0.1:0.4,reorder=0.1:0.005,dup=0.1,corrupt=0.05"

    def _run(self, seed):
        sim = Simulator()
        injector = FaultInjector(sim, parse_fault_spec(self.SPEC), seed=seed)
        for n in range(500):
            injector.judge(packet(n))
        return injector

    def test_same_seed_same_digest(self):
        first, second = self._run(42), self._run(42)
        assert first.schedule_digest() == second.schedule_digest()
        assert first.counts == second.counts

    def test_different_seed_different_digest(self):
        assert self._run(1).schedule_digest() != self._run(2).schedule_digest()

    def test_digest_covers_decisions(self):
        sim = Simulator()
        clean = FaultInjector(sim, [], seed=1)
        clean.judge(packet())
        lossy = FaultInjector(sim, [IIDLoss(1.0)], seed=1)
        lossy.judge(packet())
        assert clean.schedule_digest() != lossy.schedule_digest()


class TestFaultyLink:
    def _link(self, models, seed=5, delay=0.001):
        sim = Simulator()
        injector = FaultInjector(sim, models, seed=seed)
        link = FaultyLink(sim, delay, injector=injector)
        return sim, injector, link

    def test_drop(self):
        sim, injector, link = self._link([IIDLoss(1.0)])
        delivered = []
        link.transmit(packet(), delivered.append)
        sim.run(until=1.0)
        assert delivered == []
        assert link.packets_dropped == 1

    def test_duplicate_delivers_copies(self):
        sim, injector, link = self._link([Duplicate(1.0, copies=2)])
        delivered = []
        link.transmit(packet(), delivered.append)
        sim.run(until=1.0)
        assert len(delivered) == 3

    def test_reorder_overtakes_fifo(self):
        """A delay-spiked packet arrives after its successor."""
        spiky_sim = Simulator()
        spiky_injector = FaultInjector(
            spiky_sim, [Reorder(1.0, spike=0.05)], seed=5
        )
        # Only the first packet is judged faulty: use a one-shot model.
        spiky_injector.models[0].rate = 1.0
        spiky_link = FaultyLink(spiky_sim, 0.001, injector=spiky_injector)
        order = []
        spiky_link.transmit(packet(1), lambda p: order.append(1))
        spiky_injector.models[0].rate = 0.0  # successors unfaulted
        spiky_link.transmit(packet(2), lambda p: order.append(2))
        spiky_sim.run(until=1.0)
        assert order == [2, 1]

    def test_corruption_delivers_bytes_that_fail_parsing(self):
        sim, injector, link = self._link([Corrupt(1.0, bits=4)])
        delivered = []
        link.transmit(packet(), delivered.append)
        sim.run(until=1.0)
        assert len(delivered) == 1
        payload = delivered[0]
        assert isinstance(payload, bytes)
        with pytest.raises(PacketError):
            parse_packet(payload)

    def test_clean_pipeline_is_transparent(self):
        sim, injector, link = self._link([GilbertElliottLoss(0.0, 1.0)])
        delivered = []
        original = packet()
        link.transmit(original, delivered.append)
        sim.run(until=1.0)
        assert delivered == [original]
        assert injector.packets_seen == 1

    def test_summary_and_describe(self):
        sim, injector, link = self._link([IIDLoss(0.5)])
        assert "loss" in injector.describe()
        assert "0 packets" in injector.summary()
        assert link.injector is injector
