"""Interface-level tests every demux algorithm must pass.

Parametrized over all seven structures via the ``any_algorithm``
fixture: whatever the internal organization, they are all correct
containers that find the right PCB and account their costs sanely.
"""

import pickle

import pytest

from repro.core.base import DuplicateConnectionError, LookupResult
from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind

from conformance_matrix import ops
from conftest import make_pcbs, make_tuple


class TestLookupResult:
    """The result record's contract, whichever way it is built."""

    def test_positional_and_keyword_construction_agree(self):
        pcb = PCB(make_tuple(0))
        positional = LookupResult(pcb, 3, True, PacketKind.ACK)
        keyword = LookupResult(
            pcb=pcb, examined=3, cache_hit=True, kind=PacketKind.ACK
        )
        assert positional == keyword
        assert (positional.pcb, positional.examined, positional.cache_hit,
                positional.kind) == (pcb, 3, True, PacketKind.ACK)

    def test_found(self):
        assert LookupResult(PCB(make_tuple(0)), 1, False, PacketKind.DATA).found
        assert not LookupResult(None, 4, False, PacketKind.DATA).found

    def test_fields_are_read_only(self):
        result = LookupResult(None, 2, False, PacketKind.DATA)
        for field in ("pcb", "examined", "cache_hit", "kind", "found"):
            with pytest.raises(AttributeError):
                setattr(result, field, None)
        with pytest.raises(AttributeError):
            result.extra = 1

    def test_repr(self):
        assert repr(LookupResult(None, 2, False, PacketKind.DATA)) == (
            "LookupResult(pcb=None, examined=2, cache_hit=False,"
            f" kind={PacketKind.DATA!r})"
        )

    def test_pickle_round_trip(self):
        miss = LookupResult(None, 5, False, PacketKind.ACK)
        assert pickle.loads(pickle.dumps(miss)) == miss
        hit = LookupResult(PCB(make_tuple(1)), 1, True, PacketKind.DATA)
        restored = pickle.loads(pickle.dumps(hit))
        assert type(restored) is LookupResult
        assert restored.pcb.four_tuple == hit.pcb.four_tuple
        assert (restored.examined, restored.cache_hit, restored.kind) == (
            1, True, PacketKind.DATA
        )


class TestFastResultConstruction:
    """The fast structures build each result in one C call,
    ``tuple.__new__(LookupResult, ...)``, never through the generated
    ``__new__``; the results keep the record's type, arity and values.
    Seed-202 golden TPC/A stream, stray misses included."""

    @pytest.mark.parametrize("spec", [
        "fast-sequent:h=19",
        "fast-bsd",
        "fast-cuckoo",
        "sharded-fast-sequent:shards=4,steer=hash,h=19",
    ])
    def test_batched_replay_makes_no_python_level_new_call(
        self, spec, monkeypatch
    ):
        stream = ops("tpca_seed202")
        pcbs = [PCB(op[1]) for op in stream if op[0] == "insert"]
        packets = [(op[1], op[2]) for op in stream if op[0] == "lookup"]
        assert len(pcbs) + len(packets) == len(stream)

        def populated():
            algorithm = make_algorithm(spec)
            for pcb in pcbs:
                algorithm.insert(pcb)
            return algorithm

        algorithm = populated()
        per_call = [algorithm.lookup(tup, kind) for tup, kind in packets]

        calls = []
        generated_new = LookupResult.__new__

        def counting_new(cls, *args, **kwargs):
            calls.append(args)
            return generated_new(cls, *args, **kwargs)

        algorithm = populated()
        monkeypatch.setattr(LookupResult, "__new__", counting_new)
        batched = []
        for start in range(0, len(packets), 256):
            batched.extend(algorithm.lookup_batch(packets[start:start + 256]))
        monkeypatch.undo()

        assert len(calls) == 0
        assert all(
            type(result) is LookupResult and len(result) == 4
            for result in batched
        )
        assert batched == per_call


class TestContainerBehaviour:
    def test_starts_empty(self, any_algorithm):
        assert len(any_algorithm) == 0
        assert list(any_algorithm) == []

    def test_empty_structure_still_truthy(self, any_algorithm):
        """``algorithm or default()`` must never discard a real
        (but empty) structure."""
        assert bool(any_algorithm) is True

    def test_insert_grows(self, any_algorithm):
        for i, pcb in enumerate(make_pcbs(5), start=1):
            any_algorithm.insert(pcb)
            assert len(any_algorithm) == i

    def test_iter_yields_all_inserted(self, any_algorithm):
        pcbs = make_pcbs(10)
        for pcb in pcbs:
            any_algorithm.insert(pcb)
        assert {p.four_tuple for p in any_algorithm} == {
            p.four_tuple for p in pcbs
        }

    def test_duplicate_insert_rejected(self, any_algorithm):
        pcb = PCB(make_tuple(0))
        any_algorithm.insert(pcb)
        with pytest.raises(DuplicateConnectionError):
            any_algorithm.insert(PCB(make_tuple(0)))
        assert len(any_algorithm) == 1

    def test_contains(self, any_algorithm):
        any_algorithm.insert(PCB(make_tuple(3)))
        assert make_tuple(3) in any_algorithm
        assert make_tuple(4) not in any_algorithm

    def test_remove_returns_pcb(self, any_algorithm):
        pcbs = make_pcbs(4)
        for pcb in pcbs:
            any_algorithm.insert(pcb)
        removed = any_algorithm.remove(make_tuple(2))
        assert removed is pcbs[2]
        assert len(any_algorithm) == 3
        assert make_tuple(2) not in any_algorithm

    def test_remove_missing_raises_keyerror(self, any_algorithm):
        with pytest.raises(KeyError):
            any_algorithm.remove(make_tuple(0))

    def test_remove_then_reinsert(self, any_algorithm):
        any_algorithm.insert(PCB(make_tuple(0)))
        any_algorithm.remove(make_tuple(0))
        any_algorithm.insert(PCB(make_tuple(0)))  # no duplicate error
        assert len(any_algorithm) == 1


class TestLookupCorrectness:
    def test_finds_every_inserted_pcb(self, any_algorithm):
        pcbs = make_pcbs(20)
        for pcb in pcbs:
            any_algorithm.insert(pcb)
        for pcb in pcbs:
            result = any_algorithm.lookup(pcb.four_tuple)
            assert result.found
            assert result.pcb is pcb

    def test_miss_returns_none(self, any_algorithm):
        for pcb in make_pcbs(5):
            any_algorithm.insert(pcb)
        result = any_algorithm.lookup(make_tuple(99))
        assert not result.found
        assert result.pcb is None

    def test_lookup_after_remove_misses(self, any_algorithm):
        for pcb in make_pcbs(5):
            any_algorithm.insert(pcb)
        # Look up first, so caches hold it, then remove.
        any_algorithm.lookup(make_tuple(1))
        any_algorithm.remove(make_tuple(1))
        result = any_algorithm.lookup(make_tuple(1))
        assert not result.found, "cache must not resurrect removed PCBs"

    def test_lookup_kinds_both_work(self, any_algorithm):
        pcb = PCB(make_tuple(0))
        any_algorithm.insert(pcb)
        assert any_algorithm.lookup(pcb.four_tuple, PacketKind.DATA).found
        assert any_algorithm.lookup(pcb.four_tuple, PacketKind.ACK).found

    def test_lookup_on_empty_structure(self, any_algorithm):
        result = any_algorithm.lookup(make_tuple(0))
        assert not result.found
        assert result.examined >= 0

    def test_note_send_does_not_crash_or_miscount(self, any_algorithm):
        pcb = PCB(make_tuple(0))
        any_algorithm.insert(pcb)
        before = any_algorithm.stats.lookups
        any_algorithm.note_send(pcb)
        assert any_algorithm.stats.lookups == before


class TestCostAccounting:
    def test_examined_is_positive_on_hit(self, any_algorithm):
        pcb = PCB(make_tuple(0))
        any_algorithm.insert(pcb)
        result = any_algorithm.lookup(pcb.four_tuple)
        assert result.examined >= 1

    def test_examined_bounded_by_population_plus_caches(self, any_algorithm):
        pcbs = make_pcbs(30)
        for pcb in pcbs:
            any_algorithm.insert(pcb)
        for pcb in pcbs:
            result = any_algorithm.lookup(pcb.four_tuple)
            # At most every PCB plus two cache slots.
            assert result.examined <= len(pcbs) + 2

    def test_stats_recorded_per_lookup(self, any_algorithm):
        pcbs = make_pcbs(5)
        for pcb in pcbs:
            any_algorithm.insert(pcb)
        for pcb in pcbs:
            any_algorithm.lookup(pcb.four_tuple, PacketKind.DATA)
        any_algorithm.lookup(make_tuple(50), PacketKind.ACK)
        stats = any_algorithm.stats
        assert stats.lookups == 6
        assert stats.kind(PacketKind.DATA).lookups == 5
        assert stats.kind(PacketKind.ACK).lookups == 1
        assert stats.kind(PacketKind.ACK).not_found == 1

    def test_mean_examined_matches_manual_average(self, any_algorithm):
        pcbs = make_pcbs(8)
        for pcb in pcbs:
            any_algorithm.insert(pcb)
        examined = [
            any_algorithm.lookup(pcb.four_tuple).examined for pcb in pcbs
        ]
        assert any_algorithm.stats.mean_examined == pytest.approx(
            sum(examined) / len(examined)
        )

    def test_describe_mentions_name(self, any_algorithm):
        assert any_algorithm.name in any_algorithm.describe()
        assert any_algorithm.name in repr(any_algorithm)


class TestRepeatedLookupLocality:
    """Repeating the same lookup must never get *more* expensive --
    every structure here has some locality mechanism or is flat."""

    def test_second_lookup_not_costlier(self, any_algorithm):
        pcbs = make_pcbs(25)
        for pcb in pcbs:
            any_algorithm.insert(pcb)
        target = pcbs[20].four_tuple
        first = any_algorithm.lookup(target).examined
        second = any_algorithm.lookup(target).examined
        assert second <= first
