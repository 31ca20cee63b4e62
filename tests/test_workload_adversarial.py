"""Adversarial workload tests: SYN flood, churn storm, malformed stream."""

import pytest

from repro.core.bsd import BSDDemux
from repro.core.registry import make_algorithm
from repro.core.sequent import SequentDemux
from repro.core.stats import PacketKind
from repro.fastpath.conformance import churn_ops, replay, walk_ops
from repro.faults.audit import audit_stack
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.tcpstack.stack import HostStack
from repro.workload.adversarial import (
    ChurnStormWorkload,
    MalformedStreamWorkload,
    SynFloodWorkload,
    churn_walk,
)


class TestSynFlood:
    def _flood(self, policy, **kwargs):
        workload = SynFloodWorkload(
            algorithm=BSDDemux(),
            syn_rate=100.0,
            duration=5.0,
            legit_clients=5,
            max_connections=16,
            overflow_policy=policy,
            seed=1,
            **kwargs,
        )
        result = workload.run(settle=30.0)
        return workload, result

    def test_reject_new_starves_legitimate_clients(self):
        workload, result = self._flood("reject-new")
        assert result.syns_sent > 100
        assert result.table_full_drops > 0
        # SYNs are shed silently: no RSTs for refused connections.
        assert result.resets_sent == 0
        # The attack wins under reject-new: the table is full of
        # half-open attack PCBs when the legitimate clients arrive.
        assert result.legit_connected < result.legit_attempted

    def test_evict_embryonic_protects_legitimate_clients(self):
        workload, result = self._flood("evict-oldest-embryonic")
        assert result.embryonic_evictions > 0
        # Eviction recycles half-open slots, so real handshakes --
        # which complete in milliseconds -- get through the flood.
        assert result.legit_connected == result.legit_attempted

    def test_no_leaks_after_flood_drains(self):
        workload, result = self._flood("evict-oldest-embryonic")
        audit = audit_stack(workload.server)
        assert audit.ok, audit.describe()
        # Established legit connections may remain; bound is the table cap.
        assert result.pcbs_remaining <= 16

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SynFloodWorkload(algorithm=BSDDemux(), syn_rate=0.0)
        with pytest.raises(ValueError):
            SynFloodWorkload(algorithm=BSDDemux(), duration=-1.0)

    def test_determinism(self):
        first = self._flood("reject-new")[1]
        second = self._flood("reject-new")[1]
        assert first.__dict__ == second.__dict__


class TestChurnStorm:
    @pytest.mark.parametrize(
        "algorithm_factory",
        [BSDDemux, lambda: SequentDemux(19)],
        ids=["bsd", "sequent"],
    )
    def test_census_stays_consistent(self, algorithm_factory):
        algorithm = algorithm_factory()
        result = ChurnStormWorkload(algorithm, steps=5000, seed=3).run()
        assert result.inserts + result.removes + result.lookups == 5000
        assert result.pcbs_remaining == result.inserts - result.removes
        assert len(list(algorithm)) == result.pcbs_remaining
        assert result.lookups_found <= result.lookups
        assert result.mean_examined >= 1.0 or result.lookups == 0

    def test_grow_bias_extremes(self):
        # grow_bias=1.0: every step mutates (half insert, half remove).
        mutated = ChurnStormWorkload(BSDDemux(), steps=1000, grow_bias=1.0,
                                     seed=1).run()
        assert mutated.lookups == 0
        assert mutated.inserts + mutated.removes == 1000
        # grow_bias=0.0: all lookups, bar forced inserts when empty.
        probed = ChurnStormWorkload(BSDDemux(), steps=1000, grow_bias=0.0,
                                    seed=1).run()
        assert probed.removes == 0
        assert probed.lookups > 900

    @pytest.mark.parametrize("grow_bias", [0.0, 0.3, 0.5, 1.0])
    def test_applies_the_shared_churn_walk(self, grow_bias):
        applied = []

        class Recording(BSDDemux):
            def insert(self, pcb):
                applied.append(("insert", pcb.four_tuple))
                super().insert(pcb)

            def remove(self, tup):
                applied.append(("remove", tup))
                return super().remove(tup)

            def lookup(self, tup, kind=PacketKind.DATA):
                applied.append(("lookup", tup, kind))
                return super().lookup(tup, kind)

        ChurnStormWorkload(
            Recording(), steps=1500, grow_bias=grow_bias, seed=4
        ).run()
        walk = churn_walk(RngRegistry(4).stream("churnstorm"), 1500, grow_bias)
        assert applied == walk_ops(list(walk))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnStormWorkload(BSDDemux(), steps=0)
        with pytest.raises(ValueError):
            ChurnStormWorkload(BSDDemux(), grow_bias=1.5)

    def test_long_conformance_walk_replays(self):
        # churn_tuple keeps ids distinct far beyond 20,000 steps, so the
        # conformance walk is uncapped, like the workload's.
        with pytest.raises(ValueError):
            churn_ops(1, steps=0)
        ops = walk_ops(churn_ops(3, steps=30_000))
        fast, _ = replay(
            make_algorithm("fast-sequent:h=19"), ops, chunk=64, batched=True
        )
        reference, _ = replay(make_algorithm("sequent:h=19"), ops)
        assert len(fast) > 10_000
        assert fast == reference

    def test_determinism(self):
        a = ChurnStormWorkload(BSDDemux(), steps=2000, seed=9).run()
        b = ChurnStormWorkload(BSDDemux(), steps=2000, seed=9).run()
        assert a.__dict__ == b.__dict__


class TestMalformedStream:
    def _server(self):
        sim = Simulator()
        net = Network(sim, default_delay=0.0005)
        return HostStack(sim, net, "10.0.0.1", BSDDemux())

    def test_contract_never_raises_and_accounts_every_frame(self):
        server = self._server()
        result = MalformedStreamWorkload(server, frames=300, seed=2).run()
        assert result.delivered == 300
        assert result.corrupt_drops + result.parsed_ok == 300
        # Overwhelmingly these are rejects; checksum cancellation is rare.
        assert result.corrupt_drops >= 295
        assert sum(result.by_category.values()) == 300

    def test_all_categories_exercised(self):
        server = self._server()
        result = MalformedStreamWorkload(server, frames=200, seed=5).run()
        assert set(result.by_category) == set(MalformedStreamWorkload.CATEGORIES)
        assert all(count > 0 for count in result.by_category.values())

    def test_server_still_functional_afterwards(self):
        """The malformed stream must not wedge the inbound path."""
        server = self._server()
        MalformedStreamWorkload(server, frames=100, seed=7).run()
        sim, net = server.sim, server.network
        server.listen(80)
        client = HostStack(sim, net, "10.0.1.1", BSDDemux())
        established = []
        client.connect("10.0.0.1", 80, on_establish=established.append)
        sim.run(until=sim.now + 1.0)
        assert established

    def test_validation(self):
        with pytest.raises(ValueError):
            MalformedStreamWorkload(self._server(), frames=0)
