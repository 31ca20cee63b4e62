"""ShardSupervisor: crash detection, the recovery ladder, stalls, arming.

The load-bearing property is warm decision-identity: a supervised
structure whose shard crashed and was recovered from checkpoint + delta
replay makes exactly the decisions of a twin that never crashed.
"""

import random

import pytest

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.faults import SnapshotCorruption
from repro.fastpath.conformance import churn_tuple, stray_tuple
from repro.recovery import ShardSupervisor


def build(spec="sharded-mtf:shards=4", **kwargs):
    return ShardSupervisor(make_algorithm(spec), **kwargs)


def populate(algorithm, n=40):
    tuples = [churn_tuple(i) for i in range(n)]
    for tup in tuples:
        algorithm.insert(PCB(tup))
    return tuples


def traffic(algorithm, tuples, *, seed=5, packets=300):
    rng = random.Random(seed)
    for _ in range(packets):
        tup = tuples[rng.randrange(len(tuples))]
        kind = PacketKind.DATA if rng.random() < 0.7 else PacketKind.ACK
        algorithm.lookup(tup, kind)


def shard_of(supervisor, tup):
    sharded = supervisor.sharded
    return sharded.steering.shard_of(tup, sharded.nshards)


class TestConstruction:
    def test_requires_sharded(self):
        with pytest.raises(TypeError):
            ShardSupervisor(make_algorithm("bsd"))

    def test_rejects_round_robin(self):
        with pytest.raises(ValueError, match="flow-stable"):
            build("sharded-mtf:shards=4,steer=rr")

    def test_accepts_hash_and_sticky(self):
        build("sharded-mtf:shards=4")
        build("sharded-mtf:shards=4,steer=sticky")

    def test_validation(self):
        with pytest.raises(ValueError):
            build(checkpoint_every=-1)
        with pytest.raises(ValueError):
            build(detect_after=-1)


class TestWarmRecovery:
    @pytest.mark.parametrize(
        "spec",
        [
            "sharded-mtf:shards=4",
            "sharded-fast-mtf:shards=4",
            "sharded-bsd:shards=3",
            "sharded-fast-hashed_mtf:shards=4,h=7",
            "sharded-sequent:shards=2,h=5",
        ],
    )
    def test_decision_identical_to_never_crashed_twin(self, spec):
        supervised = ShardSupervisor(
            make_algorithm(spec), checkpoint_every=100
        )
        twin = make_algorithm(spec)
        tuples = populate(supervised)
        populate(twin)

        rng = random.Random(9)
        for position in range(600):
            if position == 300:
                supervised.crash_shard(1)
            tup = (
                stray_tuple(position)
                if rng.random() < 0.1
                else tuples[rng.randrange(len(tuples))]
            )
            kind = PacketKind.DATA if rng.random() < 0.7 else PacketKind.ACK
            a = supervised.lookup(tup, kind)
            b = twin.lookup(tup, kind)
            assert (a.found, a.examined, a.cache_hit) == (
                b.found, b.examined, b.cache_hit
            ), f"diverged at {position}"
        assert [e.mode for e in supervised.events] == ["warm"]
        assert supervised.events[0].checkpoint_used

    def test_shard_stats_match_never_crashed_shard(self):
        """Checkpoint stats plus replayed delta equals the uncrashed
        shard's statistics exactly."""
        spec = "sharded-mtf:shards=4"
        supervised = ShardSupervisor(
            make_algorithm(spec), checkpoint_every=50
        )
        twin = make_algorithm(spec)
        tuples = populate(supervised)
        populate(twin)
        traffic(supervised, tuples, packets=200)
        traffic(twin, tuples, packets=200)
        supervised.crash_shard(2)
        traffic(supervised, tuples, seed=6, packets=100)
        traffic(twin, tuples, seed=6, packets=100)
        assert supervised.sharded.shards[2].stats.as_dict() == (
            twin.shards[2].stats.as_dict()
        )

    def test_second_crash_does_not_restore_stale_checkpoint(self):
        """After a warm recovery the old blob's delta is consumed; a
        second crash must restore the *re-checkpointed* state."""
        supervised = build(checkpoint_every=100)
        twin = make_algorithm("sharded-mtf:shards=4")
        tuples = populate(supervised)
        populate(twin)
        rng = random.Random(13)
        for position in range(900):
            if position in (300, 600):
                supervised.crash_shard(1)
            tup = tuples[rng.randrange(len(tuples))]
            a = supervised.lookup(tup, PacketKind.DATA)
            b = twin.lookup(tup, PacketKind.DATA)
            assert (a.found, a.examined, a.cache_hit) == (
                b.found, b.examined, b.cache_hit
            )
        assert [e.mode for e in supervised.events] == ["warm", "warm"]


class TestLadderFallback:
    def test_no_checkpoint_sticky_resteers(self):
        supervised = build(
            "sharded-mtf:shards=4,steer=sticky", checkpoint_every=0
        )
        tuples = populate(supervised)
        victim = shard_of(supervised, tuples[0])
        supervised.crash_shard(victim)
        result = supervised.lookup(tuples[0], PacketKind.DATA)
        assert result.found
        assert supervised.events[0].mode == "resteer"
        # The orphan now lives on a survivor.
        assert shard_of(supervised, tuples[0]) != victim
        # Every pre-crash connection is still found.
        for tup in tuples:
            assert supervised.lookup(tup, PacketKind.ACK).found

    def test_no_checkpoint_hash_cold_rebuilds(self):
        supervised = build(checkpoint_every=0)
        tuples = populate(supervised)
        supervised.crash_shard(3)
        for tup in tuples:
            assert supervised.lookup(tup, PacketKind.DATA).found
        assert supervised.events[0].mode == "cold"
        assert not supervised.events[0].checkpoint_used

    def test_single_shard_sticky_falls_back_to_cold(self):
        """With one shard there is no survivor to re-steer to: the
        ladder must land on cold rebuild, not crash mid-recovery."""
        supervised = build("sharded-mtf:shards=1,steer=sticky")
        tuples = populate(supervised, n=8)
        supervised.crash_shard(0)
        for tup in tuples:
            assert supervised.lookup(tup, PacketKind.DATA).found
        assert [e.mode for e in supervised.events] == ["cold"]

    def test_corrupt_checkpoint_detected_and_ladder_falls_through(self):
        fault = SnapshotCorruption(1.0, bits=4)
        fault.bind_seed(3)
        supervised = build(
            checkpoint_every=50, snapshot_fault=fault
        )
        tuples = populate(supervised)
        traffic(supervised, tuples, packets=120)
        assert fault.corrupted > 0
        supervised.crash_shard(0)
        for tup in tuples:
            assert supervised.lookup(tup, PacketKind.DATA).found
        event = supervised.events[0]
        assert event.mode == "cold"
        assert event.checkpoint_corrupt
        assert supervised.checkpoint_corruptions_detected == 1


class TestResteerDeltaConsistency:
    """A re-steer rewrites flow homes behind the survivors'
    checkpoints; their delta logs must record the adoption or a later
    warm recovery of a survivor silently loses the re-pinned flows."""

    def test_survivor_warm_recovery_keeps_repinned_flows(self):
        supervised = build("sharded-mtf:shards=4,steer=sticky")
        tuples = populate(supervised)
        supervised.checkpoint()
        victim = shard_of(supervised, tuples[0])
        orphans = [t for t in tuples if shard_of(supervised, t) == victim]
        # The victim's blob is lost (per-shard storage rot), forcing
        # the re-steer rung; the survivors' checkpoints stay good.
        supervised._checkpoints[victim] = None
        supervised.crash_shard(victim)
        assert supervised.lookup(tuples[0], PacketKind.DATA).found
        assert supervised.events[0].mode == "resteer"
        # Crash the survivor that adopted an orphan: its warm restore
        # is the pre-re-steer checkpoint plus its delta, which must
        # replay the adoption for the flow to still exist.
        adopter = shard_of(supervised, orphans[0])
        supervised.crash_shard(adopter)
        assert supervised.lookup(orphans[0], PacketKind.DATA).found
        assert [e.mode for e in supervised.events] == ["resteer", "warm"]
        for tup in tuples:
            assert supervised.lookup(tup, PacketKind.ACK).found
        # And the structural remove happens at the new home (no
        # KeyError from a shard that never held the flow).
        supervised.remove(orphans[0])
        assert orphans[0] not in supervised

    def test_lookup_delta_follows_resteered_flow(self):
        """The lookup that *triggers* a re-steer recovery is served by
        the survivor and must be logged to the survivor's delta, not
        to the old (now empty) home shard's."""
        supervised = build("sharded-mtf:shards=4,steer=sticky")
        tuples = populate(supervised)
        victim = shard_of(supervised, tuples[0])
        supervised.crash_shard(victim)
        assert supervised.lookup(tuples[0], PacketKind.DATA).found
        new_home = shard_of(supervised, tuples[0])
        assert new_home != victim
        assert (
            ("lookup", tuples[0], PacketKind.DATA)
            in supervised._delta[new_home]
        )
        assert supervised._delta[victim] == []


class TestDetectionAndStalls:
    def test_detect_after_drops_then_recovers(self):
        supervised = build(checkpoint_every=100, detect_after=3)
        tuples = populate(supervised)
        traffic(supervised, tuples, packets=150)
        victim = shard_of(supervised, tuples[0])
        supervised.crash_shard(victim)
        at_victim = [t for t in tuples if shard_of(supervised, t) == victim]
        outcomes = [
            supervised.lookup(at_victim[i % len(at_victim)], PacketKind.DATA)
            for i in range(5)
        ]
        assert [r.found for r in outcomes] == [False] * 3 + [True] * 2
        assert supervised.packets_dropped == 3
        assert supervised.events[0].dropped_packets == 3

    def test_other_shards_serve_during_outage(self):
        supervised = build(detect_after=1000)
        tuples = populate(supervised)
        victim = shard_of(supervised, tuples[0])
        supervised.crash_shard(victim)
        elsewhere = [t for t in tuples if shard_of(supervised, t) != victim]
        for tup in elsewhere[:10]:
            assert supervised.lookup(tup, PacketKind.DATA).found

    def test_insert_detects_immediately(self):
        supervised = build(checkpoint_every=100, detect_after=1000)
        tuples = populate(supervised)
        traffic(supervised, tuples, packets=150)
        supervised.crash_shard(2)
        # Find a fresh tuple steered at the dead shard.
        index = 10_000
        while True:
            tup = churn_tuple(index)
            if shard_of(supervised, tup) == 2 and tup not in supervised:
                break
            index += 1
        supervised.insert(PCB(tup))
        assert supervised.events and supervised.events[0].mode == "warm"
        assert supervised.lookup(tup, PacketKind.DATA).found

    def test_stall_drops_then_resumes_with_state_intact(self):
        supervised = build()
        tuples = populate(supervised)
        traffic(supervised, tuples, packets=100)
        victim = shard_of(supervised, tuples[0])
        at_victim = [t for t in tuples if shard_of(supervised, t) == victim]
        supervised.stall_shard(victim, 2)
        first = supervised.lookup(at_victim[0], PacketKind.DATA)
        second = supervised.lookup(at_victim[0], PacketKind.DATA)
        third = supervised.lookup(at_victim[0], PacketKind.DATA)
        assert (first.found, second.found, third.found) == (
            False, False, True
        )
        assert supervised.stall_drops == 2
        assert not supervised.events  # a stall is not a crash

    def test_crash_supersedes_stall(self):
        supervised = build(checkpoint_every=100)
        tuples = populate(supervised)
        victim = shard_of(supervised, tuples[0])
        supervised.stall_shard(victim, 50)
        supervised.crash_shard(victim)
        assert supervised.lookup(tuples[0], PacketKind.DATA).found
        assert supervised.events[0].shard == victim


class TestArmedFaults:
    def test_armed_crash_fires_at_packet_index(self):
        supervised = build(checkpoint_every=100)
        tuples = populate(supervised)
        supervised.arm_crashes([(50, 1)])
        for i in range(50):
            supervised.lookup(tuples[i % len(tuples)], PacketKind.DATA)
        assert supervised.crashes_injected == 0
        supervised.lookup(tuples[0], PacketKind.DATA)
        assert supervised.crashes_injected == 1

    def test_armed_stall_fires(self):
        supervised = build()
        tuples = populate(supervised)
        supervised.arm_stalls([(10, 0, 5)])
        for i in range(60):
            supervised.lookup(tuples[i % len(tuples)], PacketKind.ACK)
        assert supervised.stalls_injected == 1
        assert supervised.stall_drops > 0

    def test_arm_validation(self):
        supervised = build()
        with pytest.raises(IndexError):
            supervised.arm_crashes([(10, 99)])
        with pytest.raises(ValueError):
            supervised.arm_crashes([(-1, 0)])
        with pytest.raises(ValueError):
            supervised.arm_stalls([(5, 0, 0)])

    def test_batched_lookups_fire_armed_faults(self):
        supervised = build(checkpoint_every=100)
        tuples = populate(supervised)
        supervised.checkpoint()  # guarantee a blob exists for warm mode
        supervised.arm_crashes([(20, 1)])
        batch = [
            (tuples[i % len(tuples)], PacketKind.DATA) for i in range(80)
        ]
        results = supervised.lookup_batch(batch)
        assert len(results) == 80
        assert supervised.crashes_injected == 1
        assert [e.mode for e in supervised.events] == ["warm"]


class TestFacade:
    def test_len_iter_contains_forwarded(self):
        supervised = build()
        tuples = populate(supervised, n=12)
        assert len(supervised) == 12
        assert set(p.four_tuple for p in supervised) == set(tuples)
        assert tuples[0] in supervised

    def test_remove_updates_directory(self):
        supervised = build()
        tuples = populate(supervised)
        supervised.remove(tuples[0])
        assert tuples[0] not in supervised
        assert tuples[0] not in supervised.connection_directory()

    def test_remove_then_crash_does_not_resurrect(self):
        supervised = build(checkpoint_every=0)
        tuples = populate(supervised)
        victim = shard_of(supervised, tuples[0])
        supervised.remove(tuples[0])
        supervised.crash_shard(victim)
        assert not supervised.lookup(tuples[0], PacketKind.DATA).found

    def test_remove_and_note_send_read_one_home_entry(self, monkeypatch):
        """On live shards, remove and note_send read only their flow's
        director entry: copying the whole table would make each call
        O(N)."""
        supervised = build("sharded-fast-sequent:shards=4,steer=hash,h=19")
        tuples = populate(supervised)

        def copy_of_table():
            raise AssertionError("home_table() copies every entry")

        monkeypatch.setattr(supervised.sharded, "home_table", copy_of_table)
        pcb = supervised.connection_directory()[tuples[0]]
        supervised.note_send(pcb)
        home = supervised.sharded.shard_of(tuples[0])
        assert supervised._delta[home][-1] == ("send", pcb)
        assert supervised.remove(tuples[0]) is pcb
        assert supervised._delta[home][-1] == ("remove", tuples[0])
        supervised.note_send(pcb)  # no longer live: ignored
        with pytest.raises(KeyError):
            supervised.remove(tuples[0])
        assert len(supervised) == len(tuples) - 1

    def test_recovery_summary_shape(self):
        supervised = build(checkpoint_every=50)
        tuples = populate(supervised)
        traffic(supervised, tuples, packets=100)
        supervised.crash_shard(shard_of(supervised, tuples[0]))
        supervised.lookup(tuples[0], PacketKind.DATA)
        summary = supervised.recovery_summary()
        assert summary["crashes_injected"] == 1
        assert summary["recoveries"] == 1
        assert summary["modes"] == {"warm": 1}
        assert summary["dead_shards"] == []
        assert summary["mttr_ms_max"] > 0
        assert len(summary["events"]) == 1

    def test_spans_note_recovery_emitted(self):
        from repro.obs.spans import SpanCollector

        supervised = build(checkpoint_every=50)
        collector = SpanCollector(sample_every=1)
        collector.attach(supervised)
        tuples = populate(supervised)
        traffic(supervised, tuples, packets=80)
        victim = shard_of(supervised, tuples[0])
        supervised.crash_shard(victim)
        supervised.lookup(tuples[0], PacketKind.DATA)
        recoveries = [
            span
            for span in collector.recorder.all_spans()
            if span.outcome == "recovered"
        ]
        assert len(recoveries) == 1
        stage = recoveries[0].stages[0]
        assert stage.data["shard"] == victim
        assert stage.data["mode"] == "warm"

    def test_metrics_publish(self):
        from repro.obs.metrics import MetricsRegistry

        supervised = build(checkpoint_every=50)
        tuples = populate(supervised)
        traffic(supervised, tuples, packets=80)
        supervised.crash_shard(shard_of(supervised, tuples[0]))
        supervised.lookup(tuples[0], PacketKind.DATA)
        registry = MetricsRegistry()
        registry.publish(supervised)
        snapshot = registry.snapshot()
        events = snapshot["recovery_events_total"]["samples"][0]["value"]
        assert events == 1
        modes = {
            sample["labels"]["mode"]: sample["value"]
            for sample in snapshot["recovery_mode_total"]["samples"]
        }
        assert modes["warm"] == 1

    def test_one_recovery_is_one_mttr_observation(self):
        from repro.obs.metrics import MetricsRegistry

        supervised = build(checkpoint_every=50)
        tuples = populate(supervised)
        traffic(supervised, tuples, packets=80)
        supervised.crash_shard(shard_of(supervised, tuples[0]))
        supervised.lookup(tuples[0], PacketKind.DATA)
        registry = MetricsRegistry()
        for _ in range(3):  # periodic publishes re-read the same event
            registry.publish(supervised)
        mttr = registry.histogram("recovery_mttr_ms")
        assert mttr.count(algorithm=supervised.name, mode="warm") == 1

    def test_metrics_see_through_to_the_shards(self):
        from repro.obs.metrics import MetricsRegistry

        supervised = build("sharded-fast-mtf:shards=4")
        populate(supervised)
        registry = MetricsRegistry()
        registry.publish(supervised)
        snapshot = registry.snapshot()
        for name in ("fastpath_shard_counters", "smp_shard_occupancy"):
            labels = {
                sample["labels"]["algorithm"]
                for sample in snapshot[name]["samples"]
            }
            assert labels == {"sharded-fast-mtf"}, name
        demux = snapshot["demux_lookups_total"]["samples"]
        assert {s["labels"]["algorithm"] for s in demux} == {
            "supervised-sharded-fast-mtf"
        }
