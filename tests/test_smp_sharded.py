"""Tests for ShardedDemux, steering, registry specs, and shard metrics."""

import pytest

from repro.core.base import DuplicateConnectionError
from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.obs.metrics import MetricsRegistry
from repro.packet.addresses import FourTuple, IPv4Address
from repro.recovery import ShardSupervisor
from repro.smp import (
    HashSteering,
    RoundRobinSteering,
    ShardedDemux,
    StickyFlowSteering,
    available_steerings,
    make_steering,
)
from repro.core.sequent import SequentDemux
from repro.workload.tpca import TPCAConfig, TPCADemuxSimulation

SERVER = IPv4Address("10.0.0.1")


def tuple_for(index: int) -> FourTuple:
    return FourTuple(SERVER, 1521, IPv4Address("10.7.0.0") + index, 40000 + index)


def sharded(nshards=4, steering=None):
    return ShardedDemux(lambda: SequentDemux(5), nshards, steering)


class TestSteering:
    def test_registry(self):
        assert available_steerings() == ["hash", "rr", "sticky"]
        assert make_steering("hash").name == "hash"
        assert make_steering("rr").name == "rr"
        assert make_steering("sticky").name == "sticky"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown steering"):
            make_steering("teleport")

    def test_hash_param(self):
        steer = make_steering("hash=crc16")
        assert steer.shard_of(tuple_for(0), 8) in range(8)

    def test_param_only_for_hash(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            make_steering("rr=3")

    def test_hash_is_flow_stable(self):
        steer = HashSteering()
        tup = tuple_for(3)
        assert steer.shard_of(tup, 8) == steer.shard_of(tup, 8)
        assert steer.flow_stable

    def test_round_robin_rotates(self):
        steer = RoundRobinSteering()
        tup = tuple_for(0)
        assert [steer.shard_of(tup, 3) for _ in range(6)] == [0, 1, 2, 0, 1, 2]
        steer.reset()
        assert steer.shard_of(tup, 3) == 0
        assert not steer.flow_stable

    def test_sticky_balances_new_flows(self):
        steer = StickyFlowSteering()
        shards = [steer.shard_of(tuple_for(i), 4) for i in range(8)]
        assert shards == [0, 1, 2, 3, 0, 1, 2, 3]
        # Pins survive repeat lookups.
        assert steer.shard_of(tuple_for(5), 4) == 1

    def test_sticky_forget_releases_load(self):
        steer = StickyFlowSteering()
        for i in range(4):
            steer.shard_of(tuple_for(i), 4)
        steer.forget(tuple_for(0))
        # Shard 0 is now least loaded, so the next new flow lands there.
        assert steer.shard_of(tuple_for(99), 4) == 0

    def test_nshards_validated(self):
        with pytest.raises(ValueError):
            HashSteering().shard_of(tuple_for(0), 0)


class TestShardedDemux:
    def test_facade_contract(self):
        demux = sharded(4)
        pcbs = [PCB(tuple_for(i)) for i in range(20)]
        for pcb in pcbs:
            demux.insert(pcb)
        assert len(demux) == 20
        assert sum(demux.occupancy()) == 20
        for i, pcb in enumerate(pcbs):
            assert tuple_for(i) in demux
            result = demux.lookup(tuple_for(i), PacketKind.DATA)
            assert result.pcb is pcb
        assert sorted(p.four_tuple for p in demux) == sorted(
            p.four_tuple for p in pcbs
        )
        for i in range(20):
            assert demux.remove(tuple_for(i)) is pcbs[i]
        assert len(demux) == 0

    def test_duplicate_insert_rejected(self):
        demux = sharded(2)
        demux.insert(PCB(tuple_for(0)))
        with pytest.raises(DuplicateConnectionError):
            demux.insert(PCB(tuple_for(0)))
        assert len(demux) == 1

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            sharded(2).remove(tuple_for(0))

    def test_miss_returns_none(self):
        demux = sharded(2)
        result = demux.lookup(tuple_for(0), PacketKind.DATA)
        assert result.pcb is None

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            sharded(0)

    def test_hash_steering_never_migrates(self):
        demux = sharded(4, HashSteering())
        for i in range(30):
            demux.insert(PCB(tuple_for(i)))
        for _ in range(3):
            for i in range(30):
                demux.lookup(tuple_for(i), PacketKind.DATA)
        assert demux.flow_migrations == 0

    def test_round_robin_migrates_and_stays_correct(self):
        demux = sharded(4, RoundRobinSteering())
        pcbs = [PCB(tuple_for(i)) for i in range(8)]
        for pcb in pcbs:
            demux.insert(pcb)
        # Reversed lookup order misaligns with the insert rotation, so
        # steering keeps targeting shards the PCBs are not on.
        for _ in range(5):
            for i in reversed(range(8)):
                assert (
                    demux.lookup(tuple_for(i), PacketKind.DATA).pcb
                    is pcbs[i]
                )
        assert demux.flow_migrations > 0
        # Population is intact after all the shuffling.
        assert len(demux) == 8
        assert sum(demux.occupancy()) == 8

    def test_note_send_reaches_home_shard(self):
        demux = sharded(4)
        pcb = PCB(tuple_for(0))
        demux.insert(pcb)
        demux.note_send(pcb)  # must not raise; exercised via sendrecv elsewhere

    def test_aggregated_stats_match_facade_totals(self):
        demux = sharded(4)
        for i in range(16):
            demux.insert(PCB(tuple_for(i)))
        for i in range(16):
            demux.lookup(tuple_for(i), PacketKind.DATA)
            demux.lookup(tuple_for(i), PacketKind.ACK)
        merged = demux.aggregated_stats()
        assert merged.lookups == demux.stats.lookups == 32
        assert merged.kind(PacketKind.ACK).lookups == 16
        # Shards count the same examinations the facade records.
        assert merged.combined().examined_total == (
            demux.stats.combined().examined_total
        )

    def test_imbalance_and_p99(self):
        demux = sharded(2, HashSteering())
        for i in range(10):
            demux.insert(PCB(tuple_for(i)))
        assert demux.imbalance_factor() == 1.0  # no traffic yet
        for i in range(10):
            demux.lookup(tuple_for(i), PacketKind.DATA)
        assert demux.imbalance_factor() >= 1.0
        assert len(demux.per_shard_p99()) == 2

    def test_reset_stats_clears_everything(self):
        demux = sharded(2, RoundRobinSteering())
        for i in range(4):
            demux.insert(PCB(tuple_for(i)))
        for i in range(4):
            demux.lookup(tuple_for(i), PacketKind.DATA)
            demux.lookup(tuple_for(i), PacketKind.DATA)
        demux.reset_stats()
        assert demux.stats.lookups == 0
        assert demux.flow_migrations == 0
        assert all(load == 0 for load in demux.shard_loads())

    def test_cost_report_shape(self):
        demux = sharded(4)
        for i in range(12):
            demux.insert(PCB(tuple_for(i)))
        for i in range(12):
            demux.lookup(tuple_for(i), PacketKind.DATA)
        report = demux.cost_report()
        assert report.nshards == 4
        assert report.steering == "hash"
        assert report.lookups == 12
        assert report.mean_cost_ops > report.mean_examined
        assert "S=4" in report.summary()
        assert "sharded-sequent" in demux.describe()


class TestRegistrySpecs:
    def test_sharded_spec_defaults(self):
        demux = make_algorithm("sharded-bsd")
        assert isinstance(demux, ShardedDemux)
        assert demux.nshards == 8
        assert demux.steering.name == "hash"
        assert demux.name == "sharded-bsd"

    def test_sharded_spec_full(self):
        demux = make_algorithm("sharded-sequent:shards=4,steer=sticky,h=7")
        assert demux.nshards == 4
        assert demux.steering.name == "sticky"
        assert all(shard.nchains == 7 for shard in demux.shards)

    def test_sharded_bad_inner_spec_fails_fast(self):
        with pytest.raises(ValueError):
            make_algorithm("sharded-nonsense")
        with pytest.raises(ValueError):
            make_algorithm("sharded-bsd:bogus=1")

    def test_sharded_bad_steer_rejected(self):
        with pytest.raises(ValueError, match="unknown steering"):
            make_algorithm("sharded-bsd:steer=warp")

    def test_shards_are_independent_instances(self):
        demux = make_algorithm("sharded-bsd:shards=3")
        assert len({id(shard) for shard in demux.shards}) == 3


class TestShardedLookupBatch:
    """The batched facade path must match per-packet replay exactly."""

    @pytest.mark.parametrize("steer", ["hash", "sticky", "rr"])
    @pytest.mark.parametrize("inner", ["sequent", "fast-sequent"])
    def test_batch_matches_sequential(self, steer, inner):
        spec = f"sharded-{inner}:shards=3,steer={steer},h=5"
        sequential, batched = make_algorithm(spec), make_algorithm(spec)
        for i in range(12):
            sequential.insert(PCB(tuple_for(i)))
            batched.insert(PCB(tuple_for(i)))
        # Mix present and absent keys; absent indices stress the miss
        # path on whichever shard steering picks.
        packets = [
            (tuple_for(i % 17), PacketKind.ACK if i % 3 else PacketKind.DATA)
            for i in range(40)
        ]
        expected = [sequential.lookup(tup, kind) for tup, kind in packets]
        actual = batched.lookup_batch(packets)
        assert [
            (r.found, r.examined, r.cache_hit) for r in expected
        ] == [(r.found, r.examined, r.cache_hit) for r in actual]
        assert sequential.stats.as_dict() == batched.stats.as_dict()
        assert sequential.occupancy() == batched.occupancy()
        assert sequential.shard_loads() == batched.shard_loads()

    def test_round_robin_batch_still_migrates(self):
        demux = make_algorithm("sharded-bsd:shards=2,steer=rr")
        demux.insert(PCB(tuple_for(0)))
        results = demux.lookup_batch([(tuple_for(0), PacketKind.DATA)] * 4)
        assert all(r.found for r in results)
        assert demux.flow_migrations > 0


class TestShardMetrics:
    def test_publish_sharded(self):
        demux = sharded(2)
        for i in range(6):
            demux.insert(PCB(tuple_for(i)))
        for i in range(6):
            demux.lookup(tuple_for(i), PacketKind.DATA)
        registry = MetricsRegistry()
        registry.publish(demux)
        snapshot = registry.snapshot()
        assert "smp_shard_occupancy" in snapshot
        assert "smp_imbalance_factor" in snapshot
        assert "smp_shards" in snapshot
        occupancy = snapshot["smp_shard_occupancy"]["samples"]
        assert sum(sample["value"] for sample in occupancy) == 6
        text = registry.to_prometheus()
        assert "smp_shard_p99_examined" in text
        assert 'shard="1"' in text


class TestMigrationAttribution:
    """Migration second hops must not inflate the imbalance factor."""

    def _churn_under_rr(self, rounds=5, flows=8, nshards=4):
        demux = sharded(nshards, RoundRobinSteering())
        for i in range(flows):
            demux.insert(PCB(tuple_for(i)))
        for _ in range(rounds):
            for i in reversed(range(flows)):
                demux.lookup(tuple_for(i), PacketKind.DATA)
        return demux

    def test_loads_split_sums_to_total(self):
        demux = self._churn_under_rr()
        assert demux.flow_migrations > 0
        served = sum(shard.stats.lookups for shard in demux.shards)
        assert served == demux.stats.lookups
        assert (
            sum(demux.shard_loads()) + sum(demux.migration_loads())
            == demux.stats.lookups
        )
        assert sum(demux.migration_loads()) == demux.flow_migrations

    def test_migration_heavy_imbalance_pinned(self):
        """Imbalance reflects steered loads, not migration hops.

        A mixed stream: half the flows are looked up in insert order
        (mostly landing home under round-robin), half in reverse
        (mostly migrating).  The factor must be computable from
        shard_loads() alone -- the migration hops stay out of it.
        """
        demux = self._churn_under_rr(rounds=6, flows=8, nshards=4)
        loads = demux.shard_loads()
        total = sum(loads)
        assert total > 0  # some lookups landed home under rr rotation
        expected = max(loads) / (total / len(loads))
        assert demux.imbalance_factor() == pytest.approx(expected)
        # The old accounting folded migration hops into the loads; the
        # two load vectors must now genuinely differ on this stream.
        served = [shard.stats.lookups for shard in demux.shards]
        assert sum(served) > total
        report = demux.cost_report()
        assert report.imbalance_factor == pytest.approx(expected)
        assert report.lookups == demux.stats.lookups

    def test_sticky_churn_has_no_migration_loads(self):
        demux = sharded(4, StickyFlowSteering())
        for i in range(12):
            demux.insert(PCB(tuple_for(i)))
        # Churn: remove and re-insert while traffic flows.
        for round_number in range(4):
            for i in range(12):
                demux.lookup(tuple_for(i), PacketKind.DATA)
            victim = tuple_for(round_number)
            demux.remove(victim)
            demux.insert(PCB(victim))
        assert demux.flow_migrations == 0
        assert demux.migration_loads() == (0, 0, 0, 0)
        assert tuple(demux.shard_loads()) == tuple(
            shard.stats.lookups for shard in demux.shards
        )

    def test_reset_clears_migration_loads(self):
        demux = self._churn_under_rr(rounds=2)
        assert sum(demux.migration_loads()) > 0
        demux.reset_stats()
        assert demux.migration_loads() == (0, 0, 0, 0)
        assert demux.imbalance_factor() == 1.0

    def test_published_metric(self):
        demux = self._churn_under_rr(rounds=2)
        registry = MetricsRegistry()
        registry.publish(demux)
        snapshot = registry.snapshot()
        samples = snapshot["smp_shard_migration_relookups"]["samples"]
        assert sum(s["value"] for s in samples) == demux.flow_migrations


class TestWarmupReset:
    """A workload's warm-up reset reaches the shards: after a TPC/A run
    with warm-up, steered plus migration loads sum to the facade's
    post-warm-up lookups -- what the summary line and
    ``demux_lookups_total`` report, and what ``smp_shard_lookups``, the
    imbalance factor and the watchdog's ``shard-imbalance`` rule read."""

    SPEC = "sharded-fast-sequent:shards=4,steer=hash,h=19"
    CONFIG = TPCAConfig(n_users=50, duration=30.0, warmup=20.0, seed=3)

    @staticmethod
    def served(facade) -> int:
        return sum(facade.shard_loads()) + sum(facade.migration_loads())

    def test_sharded_facade(self):
        facade = make_algorithm(self.SPEC)
        TPCADemuxSimulation(self.CONFIG, facade).run()
        assert facade.stats.lookups > 0
        assert self.served(facade) == facade.stats.lookups

    def test_supervised_facade_without_crash(self):
        supervisor = ShardSupervisor(make_algorithm(self.SPEC))
        TPCADemuxSimulation(self.CONFIG, supervisor).run()
        facade = supervisor.sharded
        assert supervisor.crashes_injected == 0
        assert supervisor.stats.lookups > 0
        assert facade.stats.lookups == supervisor.stats.lookups
        assert self.served(facade) == facade.stats.lookups
