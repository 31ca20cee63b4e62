"""Supervised shard recovery for :class:`~repro.smp.ShardedDemux`.

On a receive-side-scaled host each shard is a per-CPU index structure:
*soft state* over PCBs that live in shared memory.  A shard crash (CPU
reset, slab corruption, a wedged worker) therefore loses the shard's
list order, cache slots, and interned-key arrays -- but not the PCBs.
:class:`ShardSupervisor` wraps the sharded facade with exactly that
failure model and three recovery ladders, tried in order:

1. **warm** -- a periodic checkpoint (:mod:`repro.recovery.snapshot`)
   of the shard exists and passes its checksum: restore it, re-linking
   to the live PCBs in the supervisor's connection directory, then
   replay the post-checkpoint operation delta straight into the shard.
   The recovered shard is *decision-identical* to one that never
   crashed -- same order, same cache contents, same statistics -- which
   the golden suite proves per-call and batched.
2. **resteer** -- no usable checkpoint, but steering is a flow
   director (:class:`~repro.smp.steering.StickyFlowSteering`): orphaned
   flows are re-pinned onto the least-occupied survivors and their
   surviving PCBs re-inserted there.  No packets are lost after
   detection; warmth is rebuilt where the flows land.
3. **cold** -- no checkpoint, hash steering (flows cannot move): the
   shard is rebuilt by re-inserting its surviving PCBs in
   first-insert order.  Correct immediately, but cache-cold and
   recency-blind -- the examined-cost gap the ``recovery-drill``
   quantifies against the warm path.

Failure detection is modelled explicitly: ``detect_after=K`` drops the
first K packets steered at a dead shard (counted per event) before the
supervisor notices and recovers; ``detect_after=0`` models a
supervisor-local crash signal (recovery on the very next packet, zero
drops -- the configuration under which warm recovery is provably
decision-identical).  Control operations (insert/remove) always detect
immediately: they are control-plane RPCs with acknowledgements.

The supervisor is itself a :class:`~repro.core.base.DemuxAlgorithm`,
so workloads, the TCP stack, and the fault matrix drive a supervised
structure unchanged.  All mutations must flow through it -- bypassing
it leaves the connection directory and operation delta stale.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.base import DemuxAlgorithm, LookupResult
from ..core.pcb import PCB
from ..core.stats import PacketKind
from ..packet.addresses import FourTuple
from ..smp.sharded import ShardedDemux
from ..smp.steering import StickyFlowSteering
from .snapshot import (
    SnapshotError,
    capture_state,
    open_envelope,
    restore_state,
    to_envelope,
)

__all__ = ["RecoveryEvent", "ShardSupervisor"]


@dataclasses.dataclass(frozen=True)
class RecoveryEvent:
    """One completed shard recovery, as reported in artifacts."""

    #: Index of the shard that crashed.
    shard: int
    #: ``"warm"``, ``"resteer"``, or ``"cold"``.
    mode: str
    #: Wall-clock mean time to repair for this event, milliseconds.
    mttr_ms: float
    #: Packets steered at the dead shard before detection (lost).
    dropped_packets: int
    #: Post-checkpoint operations replayed into the restored shard.
    replayed_ops: int
    #: PCBs resident in the shard once recovery finished.
    restored_pcbs: int
    #: Whether a checkpoint was restored (the warm path).
    checkpoint_used: bool
    #: Whether a checkpoint existed but failed its checksum.
    checkpoint_corrupt: bool

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class ShardSupervisor(DemuxAlgorithm):
    """Crash-and-recover harness around a sharded demux structure.

    Parameters
    ----------
    sharded:
        The structure to supervise.  Steering must be flow-stable
        (hash or sticky): with round-robin a flow has no home shard,
        so "which shard lost this flow" is unanswerable and the delta
        log cannot be attributed.
    checkpoint_every:
        Take a checkpoint of every live shard after this many
        operations through the supervisor (0 disables periodic
        checkpoints; :meth:`checkpoint` can still be called manually).
    detect_after:
        Packets steered at a dead shard that are dropped before the
        crash is detected.  0 means detection is immediate.
    snapshot_fault:
        Optional :class:`repro.faults.infra.SnapshotCorruption`; each
        written checkpoint passes through its ``mangle``, modelling
        storage bit-rot.  Corrupt checkpoints are *detected* at
        restore time (checksum) and recovery falls down the ladder.
    clock:
        Monotonic seconds source for MTTR measurement (default
        :func:`time.perf_counter`).
    """

    #: Refuse :func:`repro.recovery.snapshot.capture_state`: the
    #: supervisor is a facade; its shards are what checkpoints capture.
    snapshottable = False

    def __init__(
        self,
        sharded: ShardedDemux,
        *,
        checkpoint_every: int = 0,
        detect_after: int = 0,
        snapshot_fault: Optional[Any] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if not isinstance(sharded, ShardedDemux):
            raise TypeError(
                f"ShardSupervisor wraps a ShardedDemux, got {type(sharded).__name__}"
            )
        if not sharded.steering.flow_stable:
            raise ValueError(
                f"steering {sharded.steering.name!r} is not flow-stable;"
                " a supervised shard needs every flow to have a home"
                " shard (use hash or sticky steering)"
            )
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if detect_after < 0:
            raise ValueError(f"detect_after must be >= 0, got {detect_after}")
        # Before super().__init__(): the base constructor assigns
        # ``self.spans = None``, which runs this class's forwarding
        # setter, which needs ``_sharded``.
        self._sharded = sharded
        super().__init__()
        self.name = f"supervised-{sharded.name}"
        self.checkpoint_every = checkpoint_every
        self.detect_after = detect_after
        self.snapshot_fault = snapshot_fault
        self._clock = clock
        #: The connection directory: PCBs live in shared memory and
        #: survive any shard crash.  Keyed by four-tuple, kept by every
        #: insert/remove that flows through the supervisor.
        self._directory: Dict[FourTuple, PCB] = {
            pcb.four_tuple: pcb for pcb in sharded
        }
        nshards = sharded.nshards
        self._checkpoints: List[Optional[bytes]] = [None] * nshards
        #: Per-shard operation log since that shard's last checkpoint.
        self._delta: List[List[Tuple[Any, ...]]] = [[] for _ in range(nshards)]
        self._dead: set = set()
        self._pending_detect: Dict[int, int] = {}
        self._outage_drops: Dict[int, int] = {}
        #: Shard -> packets still to drop before the stall clears.
        self._stalled: Dict[int, int] = {}
        self._ops_since_checkpoint = 0
        #: Lookups processed, for armed fault triggers.
        self._packets_seen = 0
        #: Pending armed faults, ascending trigger index, popped front.
        self._armed_crashes: List[Tuple[int, int]] = []
        self._armed_stalls: List[Tuple[int, int, int]] = []
        #: Completed recoveries, oldest first.
        self.events: List[RecoveryEvent] = []
        self.packets_dropped = 0
        self.crashes_injected = 0
        self.stalls_injected = 0
        self.stall_drops = 0
        self.checkpoints_taken = 0
        self.checkpoint_corruptions_detected = 0

    # -- hook forwarding ---------------------------------------------------

    @property
    def spans(self):
        """Always ``None`` at this layer: the span collector is
        forwarded to the wrapped facade, whose ``_finish_lookup``
        records each packet exactly once.  (Recovery events are
        emitted as standalone spans via ``note_recovery``.)"""
        return None

    @spans.setter
    def spans(self, collector) -> None:
        self._sharded.spans = collector

    @property
    def sharded(self) -> ShardedDemux:
        """The supervised structure (for reports and inspection)."""
        return self._sharded

    @property
    def shards(self) -> Sequence[DemuxAlgorithm]:
        """The supervised shards, read-only, so duck-typed readers (the
        leak audit, :func:`repro.lifecycle.count_interned`) see through
        the supervisor.  Mutate them only through the supervisor."""
        return self._sharded.shards

    @property
    def dead_shards(self) -> Sequence[int]:
        """Shards currently crashed and not yet recovered."""
        return tuple(sorted(self._dead))

    def connection_directory(self) -> Dict[FourTuple, PCB]:
        """A copy of the shared-memory PCB directory."""
        return dict(self._directory)

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> int:
        """Checkpoint every live shard; returns how many were written.

        Each checkpoint is the checksummed snapshot envelope of one
        shard, so a later restore verifies integrity before trusting
        it.  The per-shard delta log restarts at the checkpoint.
        """
        written = 0
        for index in range(self._sharded.nshards):
            if index in self._dead:
                continue
            self._checkpoint_shard(index)
            written += 1
        self.checkpoints_taken += 1
        return written

    def _checkpoint_shard(self, index: int) -> None:
        shard = self._sharded.shards[index]
        blob = to_envelope(
            capture_state(shard, spec=shard.spec or self._sharded.inner_spec)
        )
        if self.snapshot_fault is not None:
            blob = self.snapshot_fault.mangle(blob)
        self._checkpoints[index] = blob
        self._delta[index] = []

    def _tick_checkpoint(self, nops: int) -> None:
        if not self.checkpoint_every:
            return
        self._ops_since_checkpoint += nops
        if self._ops_since_checkpoint >= self.checkpoint_every:
            self._ops_since_checkpoint = 0
            self.checkpoint()

    # -- fault injection ---------------------------------------------------

    def crash_shard(self, index: int) -> None:
        """Kill shard ``index``: its index structure is lost *now*.

        The instance is immediately replaced with an empty one so
        nothing can read the lost state during the outage; the PCBs
        survive in the connection directory, the flow-director table
        survives with the steering CPU.  Idempotent while dead.
        """
        if not 0 <= index < self._sharded.nshards:
            raise IndexError(
                f"no shard {index} (nshards={self._sharded.nshards})"
            )
        if index in self._dead:
            return
        self._dead.add(index)
        self._pending_detect[index] = self.detect_after
        self._outage_drops[index] = 0
        self.crashes_injected += 1
        self._stalled.pop(index, None)  # a crash supersedes any stall
        self._sharded.replace_shard(index, self._sharded.fresh_shard())

    def arm_crashes(
        self, schedule: Sequence[Tuple[int, int]]
    ) -> None:
        """Schedule crashes: each ``(packet_index, shard)`` fires just
        before the supervisor processes its ``packet_index``-th lookup
        (0-based).  Matches :meth:`repro.faults.infra.ShardCrash.schedule`."""
        for trigger, shard in schedule:
            if trigger < 0:
                raise ValueError(f"packet index must be >= 0, got {trigger}")
            if not 0 <= shard < self._sharded.nshards:
                raise IndexError(
                    f"no shard {shard} (nshards={self._sharded.nshards})"
                )
        self._armed_crashes = sorted(
            list(self._armed_crashes) + list(schedule)
        )

    def arm_stalls(
        self, schedule: Sequence[Tuple[int, int, int]]
    ) -> None:
        """Schedule stalls: ``(packet_index, shard, duration)`` triples,
        as produced by :meth:`repro.faults.infra.ShardStall.schedule`."""
        for trigger, shard, duration in schedule:
            if trigger < 0:
                raise ValueError(f"packet index must be >= 0, got {trigger}")
            if not 0 <= shard < self._sharded.nshards:
                raise IndexError(
                    f"no shard {shard} (nshards={self._sharded.nshards})"
                )
            if duration < 1:
                raise ValueError(f"stall length must be >= 1, got {duration}")
        self._armed_stalls = sorted(
            list(self._armed_stalls) + list(schedule)
        )

    def _fire_armed(self) -> None:
        while (
            self._armed_crashes
            and self._armed_crashes[0][0] <= self._packets_seen
        ):
            _, shard = self._armed_crashes.pop(0)
            self.crash_shard(shard)
        while (
            self._armed_stalls
            and self._armed_stalls[0][0] <= self._packets_seen
        ):
            _, shard, duration = self._armed_stalls.pop(0)
            if shard not in self._dead:
                self.stall_shard(shard, duration)

    def stall_shard(self, index: int, packets: int) -> None:
        """Wedge shard ``index``: drop its next ``packets`` steered
        packets, then resume with state fully intact (no recovery)."""
        if not 0 <= index < self._sharded.nshards:
            raise IndexError(
                f"no shard {index} (nshards={self._sharded.nshards})"
            )
        if packets < 1:
            raise ValueError(f"stall length must be >= 1, got {packets}")
        if index in self._dead:
            return  # already crashed; the outage model owns it
        self._stalled[index] = packets
        self.stalls_injected += 1

    def _stall_drop(self, shard: int) -> bool:
        """Consume one stalled packet; True when it must be dropped."""
        remaining = self._stalled.get(shard)
        if remaining is None:
            return False
        if remaining <= 1:
            del self._stalled[shard]
        else:
            self._stalled[shard] = remaining - 1
        self.stall_drops += 1
        self.packets_dropped += 1
        return True

    # -- recovery ----------------------------------------------------------

    def recover(self, index: int) -> RecoveryEvent:
        """Bring a dead shard back, preferring the warmest viable path."""
        if index not in self._dead:
            raise ValueError(f"shard {index} is not dead")
        start = self._clock()
        dropped = self._outage_drops.pop(index, 0)
        self._pending_detect.pop(index, None)
        checkpoint_corrupt = False
        replayed = 0
        shard: Optional[DemuxAlgorithm] = None
        blob = self._checkpoints[index]
        if blob is not None:
            try:
                shard = restore_state(
                    open_envelope(blob), pcbs=self._directory
                )
            except SnapshotError:
                checkpoint_corrupt = True
                self.checkpoint_corruptions_detected += 1
        if shard is not None:
            mode = "warm"
            # Replay the post-checkpoint delta *directly into the
            # shard*: lookups re-warm caches and MTF order and re-count
            # in shard stats, so checkpoint state + delta equals the
            # never-crashed shard exactly.  (The facade recorded these
            # packets when they originally happened.)
            for op in self._delta[index]:
                tag = op[0]
                if tag == "lookup":
                    shard.lookup(op[1], op[2])
                elif tag == "insert":
                    shard.insert(op[1])
                elif tag == "remove":
                    shard.remove(op[1])
                else:  # "send"
                    shard.note_send(op[1])
            replayed = len(self._delta[index])
            self._sharded.replace_shard(index, shard)
        elif (
            isinstance(self._sharded.steering, StickyFlowSteering)
            and self._sharded.nshards > 1
        ):
            mode = "resteer"
            shard = self._orphans_to_survivors(index)
        else:
            mode = "cold"
            shard = self._cold_rebuild(index)
        self._dead.discard(index)
        self._delta[index] = []
        if self.checkpoint_every:
            # Re-checkpoint immediately: the old blob no longer matches
            # the recovered state (its delta was just consumed), and a
            # second crash must not restore past it.
            self._checkpoint_shard(index)
        else:
            self._checkpoints[index] = None
        mttr_ms = (self._clock() - start) * 1000.0
        event = RecoveryEvent(
            shard=index,
            mode=mode,
            mttr_ms=mttr_ms,
            dropped_packets=dropped,
            replayed_ops=replayed,
            restored_pcbs=len(shard),
            checkpoint_used=(mode == "warm"),
            checkpoint_corrupt=checkpoint_corrupt,
        )
        self.events.append(event)
        spans = self._sharded.spans
        if spans is not None:
            spans.note_recovery(
                index,
                mode,
                mttr_ms=mttr_ms,
                dropped_packets=dropped,
                replayed_ops=replayed,
                restored_pcbs=event.restored_pcbs,
            )
        return event

    def _orphans_to_survivors(self, index: int) -> DemuxAlgorithm:
        """Re-pin the dead shard's flows onto the survivors.

        Placement is by current occupancy, lowest shard index on ties,
        recomputed per flow -- deterministic, and it spreads a big
        orphan set instead of dumping it on one survivor.  The fresh
        (empty) shard at ``index`` stays in service for *new* flows.

        Each re-pin is also appended to the *survivor's* delta log:
        its checkpoint pre-dates the re-steer, so a later warm
        recovery of that survivor must replay the orphan's insert or
        the flow would vanish while the director still maps to it.
        """
        steering = self._sharded.steering
        orphans = [
            tup
            for tup, home in self._sharded.home_table().items()
            if home == index
        ]
        survivors = [
            i for i in range(self._sharded.nshards) if i != index
        ]
        if not survivors:
            # Single shard: nowhere to re-steer to; rebuild in place.
            return self._cold_rebuild(index)
        for tup in orphans:
            self._sharded.forget_flow(tup)
            target = min(
                survivors, key=lambda i: (len(self._sharded.shards[i]), i)
            )
            steering.pin(tup, target)
            pcb = self._directory[tup]
            self._sharded.insert(pcb)
            self._delta[target].append(("insert", pcb))
        return self._sharded.shards[index]

    def _cold_rebuild(self, index: int) -> DemuxAlgorithm:
        """Re-insert the dead shard's surviving PCBs, order-of-arrival.

        Every flow is found again immediately; what is lost is warmth
        -- recency order and cache contents -- which shows up as
        examined-cost until traffic re-warms the structure.
        """
        shard = self._sharded.fresh_shard()
        for tup, home in self._sharded.home_table().items():
            if home == index:
                shard.insert(self._directory[tup])
        self._sharded.replace_shard(index, shard)
        return shard

    def _detect_or_drop(self, shard: int) -> bool:
        """True when the packet must be dropped (outage, undetected)."""
        remaining = self._pending_detect.get(shard, 0)
        if remaining > 0:
            self._pending_detect[shard] = remaining - 1
            self._outage_drops[shard] = self._outage_drops.get(shard, 0) + 1
            self.packets_dropped += 1
            return True
        self.recover(shard)
        return False

    # -- DemuxAlgorithm primitives ----------------------------------------

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        if self._armed_crashes or self._armed_stalls:
            self._fire_armed()
        self._packets_seen += 1
        target = self._sharded.target_of(tup)
        if target in self._dead:
            if self._detect_or_drop(target):
                # Dropped on the floor by the dead shard: nothing
                # examined, nothing found.  Counted in this facade's
                # statistics.
                return LookupResult(None, 0, False, kind)
            # Recovery ran; a re-steer may have re-pinned this flow to
            # a survivor, so the delta entry must follow it there.
            target = self._sharded.target_of(tup)
        if self._stall_drop(target):
            return LookupResult(None, 0, False, kind)
        result = self._sharded.lookup(tup, kind)
        self._delta[target].append(("lookup", tup, kind))
        self._tick_checkpoint(1)
        return result

    def lookup_batch(
        self, packets: Sequence[Tuple[FourTuple, PacketKind]]
    ) -> List[LookupResult]:
        """Batched path: delegate whole batches while all shards live.

        With a dead, stalled or armed shard the per-packet path runs so
        detection, drops, and recovery interleave exactly as they would
        packet by packet.  Hooks ride the batched path.
        """
        if (
            self._dead
            or self._stalled
            or self._armed_crashes
            or self._armed_stalls
        ):
            return [self.lookup(tup, kind) for tup, kind in packets]
        return super().lookup_batch(packets)

    def _lookup_batch(
        self, packets: Sequence[Tuple[FourTuple, PacketKind]]
    ) -> List[LookupResult]:
        results = self._sharded.lookup_batch(packets)
        target_of = self._sharded.target_of
        for tup, kind in packets:
            self._delta[target_of(tup)].append(("lookup", tup, kind))
        self._packets_seen += len(packets)
        self._tick_checkpoint(len(packets))
        return results

    def _insert(self, pcb: PCB) -> None:
        tup = pcb.four_tuple
        target = self._sharded.target_of(tup)
        if target in self._dead:
            # Control-plane operation: detection is immediate.
            self.recover(target)
        self._sharded.insert(pcb)
        self._directory[tup] = pcb
        self._delta[self._sharded.shard_of(tup)].append(("insert", pcb))
        self._tick_checkpoint(1)

    def _remove(self, tup: FourTuple) -> PCB:
        home = self._sharded.shard_of(tup)  # KeyError when absent
        if home in self._dead:
            self.recover(home)
            # A re-steer recovery moves the flow to a survivor; the
            # remove happens (and is logged) at its new home.
            home = self._sharded.home_table().get(tup)
            if home is None:
                raise KeyError(tup)
        pcb = self._sharded.remove(tup)
        self._directory.pop(tup, None)
        self._delta[home].append(("remove", tup))
        self._tick_checkpoint(1)
        return pcb

    def _note_send(self, pcb: PCB) -> None:
        try:
            home = self._sharded.shard_of(pcb.four_tuple)
        except KeyError:
            return
        if home in self._dead:
            if self._detect_or_drop(home):
                return
            # As in _lookup: recovery may have re-homed the flow.
            home = self._sharded.home_table().get(pcb.four_tuple)
            if home is None:
                return
        self._sharded.note_send(pcb)
        self._delta[home].append(("send", pcb))

    def __len__(self) -> int:
        return len(self._sharded)

    def __iter__(self) -> Iterator[PCB]:
        return iter(self._sharded)

    def __contains__(self, tup: FourTuple) -> bool:
        return tup in self._sharded

    # -- reporting ---------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero this supervisor's statistics and the facade's, shards
        and migration counters included; recovery counters keep
        counting."""
        super().reset_stats()
        self._sharded.reset_stats()

    def recovery_summary(self) -> Dict[str, Any]:
        """JSON-ready recovery record for artifacts and the CLI."""
        modes: Dict[str, int] = {}
        for event in self.events:
            modes[event.mode] = modes.get(event.mode, 0) + 1
        mttrs = [event.mttr_ms for event in self.events]
        return {
            "crashes_injected": self.crashes_injected,
            "stalls_injected": self.stalls_injected,
            "recoveries": len(self.events),
            "modes": modes,
            "packets_dropped": self.packets_dropped,
            "stall_drops": self.stall_drops,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_corruptions_detected":
                self.checkpoint_corruptions_detected,
            "mttr_ms_max": max(mttrs) if mttrs else 0.0,
            "mttr_ms_mean": sum(mttrs) / len(mttrs) if mttrs else 0.0,
            "dead_shards": list(self.dead_shards),
            "events": [event.as_dict() for event in self.events],
        }

    def metrics(self) -> List[tuple]:
        """``demux_*`` and ``recovery_*`` under this supervisor's name,
        plus the supervised facade's shard families under the facade's.

        ``recovery_mttr_ms`` holds one observation per recovery event.
        """
        label = {"algorithm": self.name}
        summary = self.recovery_summary()
        mttr: Dict[str, Dict[float, int]] = {}
        for event in self.events:
            counts = mttr.setdefault(event.mode, {})
            counts[event.mttr_ms] = counts.get(event.mttr_ms, 0) + 1
        gauges = [
            ("recovery_crashes_injected", "shard crashes injected",
             summary["crashes_injected"]),
            ("recovery_stalls_injected", "shard stalls injected",
             summary["stalls_injected"]),
            ("recovery_events_total", "completed shard recoveries",
             summary["recoveries"]),
            ("recovery_dead_shards", "shards currently dead",
             len(summary["dead_shards"])),
            ("recovery_packets_dropped",
             "packets lost to outages (undetected crashes plus stalls)",
             summary["packets_dropped"]),
            ("recovery_checkpoints_taken",
             "periodic checkpoint rounds completed",
             summary["checkpoints_taken"]),
            ("recovery_checkpoint_corruptions",
             "checkpoints rejected by the snapshot checksum at restore",
             summary["checkpoint_corruptions_detected"]),
            ("recovery_mttr_ms_max", "worst mean-time-to-repair, milliseconds",
             summary["mttr_ms_max"]),
        ]
        return (
            super().metrics()
            + self._sharded.shard_metrics()
            + [(name, "gauge", help_text, [(label, value)])
               for name, help_text, value in gauges]
            + [
                ("recovery_mode_total", "gauge", "recoveries by ladder rung",
                 [({**label, "mode": mode}, summary["modes"].get(mode, 0))
                  for mode in ("warm", "resteer", "cold")]),
                ("recovery_mttr_ms", "histogram",
                 "mean-time-to-repair per recovery, milliseconds",
                 [({**label, "mode": mode}, counts)
                  for mode, counts in mttr.items()]),
            ]
        )

    def describe(self) -> str:
        return (
            f"{self.name} ({self._sharded.nshards} shards,"
            f" {len(self._dead)} dead, {len(self.events)} recoveries,"
            f" {len(self)} PCBs)"
        )
