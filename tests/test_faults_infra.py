"""Tests for the infrastructure fault models and the mixed spec grammar."""

import pytest

from repro.faults import (
    FaultSpecError,
    GilbertElliottLoss,
    IIDLoss,
    ShardCrash,
    ShardStall,
    SnapshotCorruption,
    parse_fault_spec,
    parse_mixed_spec,
)


class TestShardCrash:
    def test_schedule_deterministic(self):
        crash = ShardCrash(count=2, window=500)
        assert crash.schedule(4, seed=7) == crash.schedule(4, seed=7)

    def test_schedule_varies_with_seed(self):
        crash = ShardCrash(count=2, window=500)
        assert crash.schedule(4, seed=7) != crash.schedule(4, seed=8)

    def test_schedule_time_ordered_within_window(self):
        schedule = ShardCrash(count=3, window=200).schedule(8, seed=3)
        indices = [index for index, _ in schedule]
        assert indices == sorted(indices)
        assert all(1 <= index <= 200 for index in indices)

    def test_keeps_a_survivor(self):
        """Never crash every shard: at most nshards - 1 events."""
        schedule = ShardCrash(count=10, window=100).schedule(4, seed=1)
        assert len(schedule) == 3
        assert len({shard for _, shard in schedule}) == 3

    def test_single_shard_schedules_nothing(self):
        """nshards=1 has no survivor to keep, so no crash fires."""
        assert ShardCrash(count=3, window=100).schedule(1, seed=1) == []

    def test_shards_distinct(self):
        schedule = ShardCrash(count=3, window=100).schedule(8, seed=5)
        shards = [shard for _, shard in schedule]
        assert len(set(shards)) == len(shards)

    def test_validation(self):
        with pytest.raises(FaultSpecError):
            ShardCrash(count=0)
        with pytest.raises(FaultSpecError):
            ShardCrash(window=0)
        with pytest.raises(ValueError):
            ShardCrash().schedule(0, seed=1)


class TestShardStall:
    def test_schedule_shape(self):
        schedule = ShardStall(count=2, window=300, duration=50).schedule(
            4, seed=9
        )
        assert len(schedule) == 2
        for index, shard, duration in schedule:
            assert 1 <= index <= 300
            assert 0 <= shard < 4
            assert duration == 50

    def test_schedule_deterministic(self):
        stall = ShardStall(count=2, window=300, duration=10)
        assert stall.schedule(4, seed=2) == stall.schedule(4, seed=2)

    def test_validation(self):
        with pytest.raises(FaultSpecError):
            ShardStall(duration=0)


class TestSnapshotCorruption:
    def test_probability_zero_never_mangles(self):
        fault = SnapshotCorruption(0.0)
        fault.bind_seed(7)
        blob = b"x" * 64
        assert fault.mangle(blob) == blob
        assert fault.corrupted == 0

    def test_probability_one_always_mangles(self):
        fault = SnapshotCorruption(1.0, bits=2)
        fault.bind_seed(7)
        blob = b"x" * 64
        mangled = fault.mangle(blob)
        assert mangled != blob
        assert len(mangled) == len(blob)
        assert fault.corrupted == 1

    def test_mangle_deterministic_per_seed(self):
        blob = b"payload" * 10
        first = SnapshotCorruption(1.0)
        first.bind_seed(3)
        second = SnapshotCorruption(1.0)
        second.bind_seed(3)
        assert first.mangle(blob) == second.mangle(blob)

    def test_empty_blob_untouched(self):
        fault = SnapshotCorruption(1.0)
        fault.bind_seed(1)
        assert fault.mangle(b"") == b""

    def test_validation(self):
        with pytest.raises(FaultSpecError):
            SnapshotCorruption(1.5)
        with pytest.raises(FaultSpecError):
            SnapshotCorruption(0.5, bits=0)


class TestInfraSpec:
    def test_parse_all_terms(self):
        link, faults = parse_mixed_spec(
            "crash=2:500,stall=1:300:25,snapcorrupt=0.2:3"
        )
        assert link == []
        crash, stall, corrupt = faults
        assert isinstance(crash, ShardCrash)
        assert (crash.count, crash.window) == (2, 500)
        assert isinstance(stall, ShardStall)
        assert (stall.count, stall.window, stall.duration) == (1, 300, 25)
        assert isinstance(corrupt, SnapshotCorruption)
        assert (corrupt.probability, corrupt.bits) == (0.2, 3)

    def test_defaults(self):
        _, (crash,) = parse_mixed_spec("crash=1")
        assert crash.window == 1000
        _, (stall,) = parse_mixed_spec("stall=1")
        assert (stall.window, stall.duration) == (1000, 100)
        _, (corrupt,) = parse_mixed_spec("snapcorrupt=0.5")
        assert corrupt.bits == 1

    def test_empty_spec(self):
        assert parse_mixed_spec(" , ,") == ([], [])

    def test_missing_values_rejected(self):
        with pytest.raises(FaultSpecError, match="=values"):
            parse_mixed_spec("crash")


class TestMixedSpec:
    def test_routes_by_vocabulary(self):
        link, infra = parse_mixed_spec(
            "ge=0.05:0.45,crash=1:500,loss=0.01,snapcorrupt=0.2"
        )
        assert len(link) == 2
        assert isinstance(link[0], GilbertElliottLoss)
        assert isinstance(link[1], IIDLoss)
        assert len(infra) == 2
        assert isinstance(infra[0], ShardCrash)
        assert isinstance(infra[1], SnapshotCorruption)

    def test_pure_link_spec(self):
        link, infra = parse_mixed_spec("loss=0.1")
        assert len(link) == 1 and infra == []

    def test_pure_infra_spec(self):
        link, infra = parse_mixed_spec("stall=1:100:10")
        assert link == [] and len(infra) == 1

    def test_unknown_term_lists_both_vocabularies(self):
        with pytest.raises(FaultSpecError) as err:
            parse_mixed_spec("loss=0.1,warp=9")
        assert str(err.value) == (
            "unknown fault 'warp'; known: blackhole, corrupt, crash, dup,"
            " flap, ge, loss, reorder, snapcorrupt, stall"
        )

    def test_link_grammar_lists_only_link_terms(self):
        with pytest.raises(FaultSpecError) as err:
            parse_fault_spec("crash=1")
        assert str(err.value) == (
            "unknown fault 'crash'; known: blackhole, corrupt, dup, flap,"
            " ge, loss, reorder"
        )

    def test_empty(self):
        assert parse_mixed_spec("") == ([], [])
