"""Snapshot codec: round trips, rejection paths, lifecycle restore.

The contract under test: ``restore(snapshot(d))`` is decision-identical
to ``d`` -- same found/examined/cache-hit on every subsequent packet,
same statistics -- for every registered algorithm family; and no
corrupted or mis-framed blob ever restores silently.
"""

import json

import pytest

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.fastpath.conformance import churn_tuple, stray_tuple
from repro.recovery import (
    SNAPSHOT_VERSION,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    capture_state,
    open_envelope,
    restore_bytes,
    restore_state,
    snapshot_bytes,
    to_envelope,
)
from repro.recovery.snapshot import SNAPSHOT_FORMAT

#: Every registered algorithm family, including the fast twins and the
#: sharded facade with each flow-stable steering.
SPECS = [
    "linear",
    "bsd",
    "mtf",
    "multicache:k=4",
    "sendrecv",
    "sequent:h=5",
    "hashed_mtf:h=3",
    "connection_id",
    "fast-linear",
    "fast-bsd",
    "fast-mtf",
    "fast-sequent:h=5",
    "fast-hashed_mtf:h=3",
    "sharded-bsd:shards=3",
    "sharded-fast-sequent:shards=3,h=5",
    "sharded-mtf:shards=2,steer=sticky",
]


def churn(algorithm, *, seed=11, ops=300, population=40):
    """Deterministic mutation-heavy warm-up: inserts, removes,
    lookups (hits and misses), and send notes."""
    import random

    rng = random.Random(seed)
    live = []
    next_id = 0
    for _ in range(population):
        tup = churn_tuple(next_id)
        algorithm.insert(PCB(tup))
        live.append(tup)
        next_id += 1
    for _ in range(ops):
        action = rng.random()
        if action < 0.1:
            tup = churn_tuple(next_id)
            next_id += 1
            algorithm.insert(PCB(tup))
            live.append(tup)
        elif action < 0.2 and len(live) > 2:
            victim = live.pop(rng.randrange(len(live)))
            algorithm.remove(victim)
        elif action < 0.3:
            tup = live[rng.randrange(len(live))]
            pcb = algorithm.lookup(tup, PacketKind.DATA).pcb
            if pcb is not None:
                algorithm.note_send(pcb)
        elif action < 0.4:
            algorithm.lookup(stray_tuple(next_id), PacketKind.ACK)
        else:
            kind = PacketKind.DATA if rng.random() < 0.6 else PacketKind.ACK
            algorithm.lookup(live[rng.randrange(len(live))], kind)
    return live


def lockstep(original, restored, live, *, seed=23, packets=200):
    """Drive both structures with the same post-restore traffic and
    assert every decision triple matches."""
    import random

    rng = random.Random(seed)
    for index in range(packets):
        if rng.random() < 0.15:
            tup = stray_tuple(index)
        else:
            tup = live[rng.randrange(len(live))]
        kind = PacketKind.DATA if rng.random() < 0.6 else PacketKind.ACK
        a = original.lookup(tup, kind)
        b = restored.lookup(tup, kind)
        assert (a.found, a.examined, a.cache_hit) == (
            b.found, b.examined, b.cache_hit
        ), f"diverged at packet {index} on {tup}"


class TestRoundTrip:
    @pytest.mark.parametrize("spec", SPECS)
    def test_restore_is_decision_identical(self, spec):
        algorithm = make_algorithm(spec)
        live = churn(algorithm)
        restored = restore_bytes(snapshot_bytes(algorithm, spec))
        assert len(restored) == len(algorithm)
        assert restored.stats.as_dict() == algorithm.stats.as_dict()
        lockstep(algorithm, restored, live)

    @pytest.mark.parametrize("spec", SPECS)
    def test_restore_is_batch_identical(self, spec):
        algorithm = make_algorithm(spec)
        live = churn(algorithm)
        restored = restore_bytes(snapshot_bytes(algorithm, spec))
        batch = [
            (live[i % len(live)], PacketKind.DATA if i % 3 else PacketKind.ACK)
            for i in range(50)
        ] + [(stray_tuple(i), PacketKind.DATA) for i in range(5)]
        expected = algorithm.lookup_batch(batch)
        actual = restored.lookup_batch(batch)
        assert [
            (r.found, r.examined, r.cache_hit) for r in expected
        ] == [(r.found, r.examined, r.cache_hit) for r in actual]

    def test_live_pcbs_resolved_by_identity(self):
        """With a directory of surviving PCBs, restore re-links to the
        *same objects* instead of building replicas."""
        algorithm = make_algorithm("bsd")
        live = churn(algorithm)
        directory = {pcb.four_tuple: pcb for pcb in algorithm}
        restored = restore_bytes(
            snapshot_bytes(algorithm, "bsd"), pcbs=directory
        )
        found = restored.lookup(live[0], PacketKind.DATA).pcb
        assert found is directory[live[0]]

    def test_connection_ids_survive(self):
        """The connection-id algorithm's slot numbers are protocol
        state (peers cache them); restore must keep the exact mapping."""
        algorithm = make_algorithm("connection_id")
        churn(algorithm)
        directory = {pcb.four_tuple: pcb for pcb in algorithm}
        restored = restore_bytes(
            snapshot_bytes(algorithm, "connection_id"), pcbs=directory
        )
        assert restored._slots == algorithm._slots
        assert restored._free == algorithm._free
        assert restored._ids == algorithm._ids

    def test_empty_structure_round_trips(self):
        algorithm = make_algorithm("mtf")
        restored = restore_bytes(snapshot_bytes(algorithm, "mtf"))
        assert len(restored) == 0
        miss = restored.lookup(stray_tuple(0), PacketKind.DATA)
        assert miss.pcb is None

    @pytest.mark.parametrize(
        "spec", ["bsd", "fast-sequent:h=5", "sharded-fast-sequent:shards=3,h=5"]
    )
    def test_addresses_travel_as_dotted_quads(self, spec):
        """An address is an int underneath, which ``json.dumps`` would
        write as a bare number without complaint."""
        algorithm = make_algorithm(spec)
        live = churn(algorithm, ops=40, population=8)
        blob = snapshot_bytes(algorithm, spec)
        for tup in live:
            for addr in (tup.local_addr, tup.remote_addr):
                assert f'"{addr}"'.encode() in blob
                assert str(int(addr)).encode() not in blob


class TestFastCacheRestore:
    """Restored cache slots hold the restored structure's own interned
    keys, so a warm cache keeps hitting across the restore."""

    @pytest.mark.parametrize(
        "spec", ["fast-bsd", "fast-sequent:h=5", "fast-hashed_mtf:h=3"]
    )
    def test_cached_tuple_hits_after_restore(self, spec):
        algorithm = make_algorithm(spec)
        live = churn(algorithm)
        target = live[-1]
        algorithm.lookup(target, PacketKind.DATA)  # warm its cache slot
        restored = restore_bytes(snapshot_bytes(algorithm, spec))
        for structure in (algorithm, restored):
            result = structure.lookup(target, PacketKind.DATA)
            assert result.found and result.cache_hit
            assert result.examined == 1


class TestLifecycleRoundTrip:
    def test_reaper_deadlines_survive(self):
        from repro.lifecycle import ConnectionReaper, TimerWheel

        algorithm = make_algorithm("bsd")
        tuples = [churn_tuple(i) for i in range(6)]
        for tup in tuples:
            algorithm.insert(PCB(tup))
        wheel = TimerWheel(tick=0.5)
        reaper = ConnectionReaper(algorithm, idle_timeout=10.0, wheel=wheel)
        # Advance time and touch a subset so deadlines differ per-tuple.
        reaper.advance(4.0)
        algorithm.lookup(tuples[0], PacketKind.DATA)
        algorithm.lookup(tuples[1], PacketKind.ACK)

        restored = restore_bytes(snapshot_bytes(algorithm, "bsd"))
        assert restored.lifecycle is not None
        new_reaper = restored.lifecycle
        assert new_reaper.idle_timeout == reaper.idle_timeout
        for tup in tuples:
            assert new_reaper._last_touch[tup] == reaper._last_touch[tup]
            assert new_reaper.wheel.deadline_of(tup) == (
                reaper.wheel.deadline_of(tup)
            )

    def test_reap_timing_preserved(self):
        """The restored twin reaps the same connections at the same
        virtual times as the original."""
        from repro.lifecycle import ConnectionReaper, TimerWheel

        algorithm = make_algorithm("mtf")
        tuples = [churn_tuple(i) for i in range(5)]
        for tup in tuples:
            algorithm.insert(PCB(tup))
        reaper = ConnectionReaper(
            algorithm, idle_timeout=5.0, wheel=TimerWheel(tick=1.0)
        )
        reaper.advance(2.0)
        algorithm.lookup(tuples[0], PacketKind.DATA)  # re-arms tuple 0

        restored = restore_bytes(snapshot_bytes(algorithm, "mtf"))
        reaper.advance(6.5)
        restored.lifecycle.advance(6.5)
        assert sorted(p.four_tuple for p in algorithm) == (
            sorted(p.four_tuple for p in restored)
        )
        assert len(algorithm) == 1  # only the touched connection survives


class TestDirectorTable:
    """A sharded payload's home table must agree with its shards and,
    under flow-stable steering, with the steering: packets of live
    flows take their shard from the table instead of being steered."""

    HASH = "sharded-fast-sequent:shards=4,steer=hash,h=5"
    STICKY = "sharded-mtf:shards=3,steer=sticky"

    def populated(self, spec, flows=50):
        algorithm = make_algorithm(spec)
        for index in range(flows):
            algorithm.insert(PCB(churn_tuple(index)))
        return algorithm

    def test_home_entry_on_another_shard_rejected(self):
        """One entry moved to the next shard.  Restored, it would
        send the flow's per-call lookup to a shard without its PCB
        (KeyError) and make ``lookup_batch`` miss it."""
        payload = capture_state(self.populated(self.HASH), self.HASH)
        wire, shard = payload["home"][7]
        payload["home"][7] = [wire, (shard + 1) % payload["nshards"]]
        with pytest.raises(SnapshotFormatError, match=f"shard {shard} holds"):
            restore_bytes(to_envelope(payload))

    def test_resident_flow_without_home_entry_rejected(self):
        payload = capture_state(self.populated(self.HASH), self.HASH)
        del payload["home"][7]
        with pytest.raises(SnapshotFormatError, match="no home table entry"):
            restore_bytes(to_envelope(payload))

    def test_home_entry_off_the_hash_rejected(self):
        """Shards and table agree, on a shard hash steering would
        never choose for the flow."""
        algorithm = self.populated(self.HASH)
        tup = churn_tuple(7)
        home = algorithm.shard_of(tup)
        moved = (home + 1) % algorithm.nshards
        algorithm.shards[moved].insert(algorithm.shards[home].remove(tup))
        algorithm._home[tup] = moved
        with pytest.raises(SnapshotFormatError, match="hash steering chooses"):
            restore_bytes(snapshot_bytes(algorithm, self.HASH))

    def test_flow_resident_in_two_shards_rejected(self):
        algorithm = self.populated(self.HASH)
        tup = churn_tuple(7)
        other = (algorithm.shard_of(tup) + 1) % algorithm.nshards
        algorithm.shards[other].insert(PCB(tup))
        with pytest.raises(SnapshotFormatError, match="resident in shards"):
            restore_bytes(snapshot_bytes(algorithm, self.HASH))

    def test_sticky_entry_without_its_pin_rejected(self):
        """Checked against the restored pins, never through
        ``shard_of``, which would pin the flow and could agree."""
        payload = capture_state(self.populated(self.STICKY), self.STICKY)
        payload["steering"]["sticky_flows"].pop(7)
        with pytest.raises(SnapshotFormatError, match="chooses None"):
            restore_bytes(to_envelope(payload))

    def test_sticky_entry_off_its_pin_rejected(self):
        payload = capture_state(self.populated(self.STICKY), self.STICKY)
        wire, shard = payload["steering"]["sticky_flows"][7]
        payload["steering"]["sticky_flows"][7] = [wire, (shard + 1) % 3]
        with pytest.raises(SnapshotFormatError, match="sticky steering"):
            restore_bytes(to_envelope(payload))

    def test_sticky_restore_adds_no_pins(self):
        algorithm = self.populated(self.STICKY)
        algorithm.lookup(stray_tuple(1), PacketKind.DATA)  # a miss pins
        restored = restore_bytes(snapshot_bytes(algorithm, self.STICKY))
        assert restored.steering._flows == algorithm.steering._flows
        assert restored.home_table() == algorithm.home_table()


class TestRejection:
    def blob(self, spec="bsd"):
        algorithm = make_algorithm(spec)
        churn(algorithm, ops=60, population=10)
        return snapshot_bytes(algorithm, spec)

    def test_garbage_rejected(self):
        with pytest.raises(SnapshotFormatError):
            restore_bytes(b"\x00\x01 not json")

    def test_wrong_format_rejected(self):
        envelope = json.loads(self.blob())
        envelope["format"] = "other-format"
        with pytest.raises(SnapshotFormatError, match="format"):
            restore_bytes(json.dumps(envelope).encode())

    def test_future_version_rejected(self):
        envelope = json.loads(self.blob())
        envelope["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotFormatError, match="version"):
            restore_bytes(json.dumps(envelope).encode())

    def test_tampered_payload_fails_checksum(self):
        """A payload edit that keeps the JSON valid must be caught by
        the sha256 -- never restored as silent bad state."""
        envelope = json.loads(self.blob())
        envelope["payload"]["stats"]["lookups"] = 999999
        with pytest.raises(SnapshotIntegrityError):
            restore_bytes(json.dumps(envelope).encode())

    def test_bit_flip_never_restores(self):
        """Any single-byte corruption is rejected with a clean error
        (integrity if the JSON still parses, format if it does not)."""
        blob = self.blob()
        for position in (10, len(blob) // 2, len(blob) - 10):
            mutable = bytearray(blob)
            mutable[position] ^= 0x20
            with pytest.raises((SnapshotFormatError, SnapshotIntegrityError)):
                restore_bytes(bytes(mutable))

    def test_open_envelope_checks_before_returning(self):
        payload = open_envelope(self.blob())
        assert payload["kind"] == "single"
        assert SNAPSHOT_FORMAT == "repro-demux-snapshot"

    def test_unknown_payload_kind_rejected(self):
        with pytest.raises(SnapshotFormatError, match="kind"):
            restore_state({"kind": "exotic"})

    def test_unbuildable_spec_rejected(self):
        payload = open_envelope(self.blob())
        payload["spec"] = "no-such-algorithm"
        with pytest.raises(SnapshotFormatError, match="does not build"):
            restore_state(payload)

    def test_supervisor_is_not_snapshottable(self):
        from repro.recovery import ShardSupervisor

        supervisor = ShardSupervisor(make_algorithm("sharded-bsd:shards=2"))
        with pytest.raises(SnapshotError):
            capture_state(supervisor)

    def test_envelope_is_deterministic(self):
        algorithm = make_algorithm("bsd")
        churn(algorithm, ops=40, population=8)
        payload = capture_state(algorithm, "bsd")
        assert to_envelope(payload) == to_envelope(payload)
