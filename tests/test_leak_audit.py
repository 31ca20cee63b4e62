"""Tests for the memory-bounds leak audit (``audit_leaks``)."""

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.faults.audit import audit_leaks
from repro.packet.addresses import FourTuple, IPv4Address

SERVER = IPv4Address("10.0.0.1")


def tuple_for(index: int) -> FourTuple:
    return FourTuple(SERVER, 1521, IPv4Address("10.5.0.0") + index, 20000 + index)


def populated(spec, count=6):
    algorithm = make_algorithm(spec)
    for i in range(count):
        algorithm.insert(PCB(tuple_for(i)))
    return algorithm


class TestHealthyStructures:
    def test_reference_structure_passes_with_na_interned(self):
        audit = audit_leaks(populated("bsd"))
        assert audit.ok
        assert audit.interned is None
        assert "n/a" in audit.describe()

    def test_fast_structure_passes_after_inserts(self):
        audit = audit_leaks(populated("fast-sequent:h=7"))
        assert audit.ok
        assert audit.interned == audit.live == 6

    def test_fast_structure_passes_after_churn(self):
        algorithm = populated("fast-mtf", 8)
        for i in range(4):
            algorithm.remove(tuple_for(i))
        algorithm.lookup(tuple_for(77), PacketKind.DATA)  # probe, no intern
        audit = audit_leaks(algorithm)
        assert audit.ok
        assert audit.interned == audit.live == 4

    def test_sharded_fast_structure_audited_per_shard(self):
        audit = audit_leaks(populated("sharded-fast-sequent:shards=4,h=7", 12))
        assert audit.ok
        assert audit.interned == 12


class TestLeakDetection:
    def test_intern_leak_is_flagged(self):
        algorithm = populated("fast-linear", 5)
        # Simulate the pre-fix bug by interning memos for connections
        # that are not (or no longer) in the table: entries outliving
        # their PCBs is exactly what the audit exists to catch.
        for i in range(100, 105):
            algorithm._keycache.entry(tuple_for(i))
        audit = audit_leaks(algorithm)
        assert not audit.ok
        assert any("interned keys leak" in v for v in audit.violations)
        assert "10 interned" in audit.describe()

    def test_grace_allows_bounded_overhang(self):
        algorithm = populated("fast-linear", 3)
        for i in range(100, 102):
            algorithm._keycache.entry(tuple_for(i))
        assert not audit_leaks(algorithm).ok
        assert audit_leaks(algorithm, grace=2).ok

    def test_shard_level_leak_is_flagged(self):
        algorithm = populated("sharded-fast-mtf:shards=2", 8)
        # Poison one shard only.
        algorithm.shards[0]._keycache.entry(tuple_for(200))
        audit = audit_leaks(algorithm)
        assert not audit.ok
        assert any("shard" in v for v in audit.violations)

    def test_leak_under_a_supervisor_is_flagged(self):
        from repro.lifecycle import count_interned
        from repro.recovery import ShardSupervisor

        facade = populated("sharded-fast-sequent:shards=2,h=5", 10)
        facade.shards[0]._keycache.entry(tuple_for(200))
        supervisor = ShardSupervisor(facade)
        assert count_interned(supervisor) == 11
        audit = audit_leaks(supervisor)
        assert not audit.ok
        assert audit.interned == 11
        assert len(audit.violations) == 2

    def test_custom_label(self):
        audit = audit_leaks(populated("fast-bsd"), label="the-server")
        assert audit.label == "the-server"
        assert "the-server" in audit.describe()
