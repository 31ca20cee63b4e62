"""Golden-trace conformance machinery.

A *decision trace* is the per-packet record of everything the paper's
cost model sees from one lookup: whether a PCB was found, how many PCBs
were examined, and whether a cache slot satisfied the probe.  Two
structures that produce identical decision traces on a stream are
indistinguishable to every experiment in this repository.

:func:`decision_trace` replays a recorded TPC/A stream (plus a
deterministic sprinkle of absent-key lookups, so the not-found path is
covered) through any registry spec and returns the trace as compact
``[found, examined, cache_hit]`` triples.  The golden suite records the
reference algorithms' traces into ``tests/golden/*.json`` (via
``tests/golden/generate_golden.py``) and asserts that (a) the reference
structures still reproduce them byte-for-byte -- guarding against
accidental semantic drift in :mod:`repro.core` -- and (b) every
``fast-*`` twin reproduces them too, through both the per-call and the
batched lookup paths.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..core.registry import make_algorithm
from ..core.stats import PacketKind
from ..packet.addresses import FourTuple, IPv4Address
from ..workload.record import RecordedStream, record_tpca_stream

__all__ = [
    "Decision",
    "ChurnOp",
    "churn_ops",
    "churn_tuple",
    "decision_trace",
    "golden_stream",
    "mutation_trace",
    "resumed_decision_trace",
    "resumed_mutation_trace",
    "stray_tuple",
]

#: One lookup decision: ``[found, examined, cache_hit]`` with 0/1 flags
#: (compact and JSON-stable).
Decision = List[int]


def golden_stream(
    seed: int, *, n_users: int = 48, duration: float = 40.0
) -> RecordedStream:
    """The seeded TPC/A stream one golden file is recorded from."""
    return record_tpca_stream(n_users, duration, seed)


def stray_tuple(index: int) -> FourTuple:
    """A deterministic four-tuple that is never installed.

    Uses the 203.0.113.0/24 documentation block, disjoint from the
    workload's 10/8 clients, so these keys always miss.
    """
    return FourTuple(
        IPv4Address("10.0.0.1"),
        1521,
        IPv4Address("203.0.113.0") + (index % 251),
        45000 + (index % 1000),
    )


def decision_trace(
    spec: str,
    stream: RecordedStream,
    *,
    stray_every: int = 13,
    use_batch: bool = False,
    batch_size: int = 64,
) -> List[Decision]:
    """Replay ``stream`` through ``spec``; return its decision trace.

    Every ``stray_every``-th packet is followed by a lookup of an
    absent key (alternating DATA/ACK kinds), so traces exercise the
    miss path of every cache and chain.  With ``use_batch=True`` the
    replay goes through ``lookup_batch`` in ``batch_size`` chunks,
    which must not change a single decision.
    """
    from ..core.pcb import PCB  # local: keep module import light

    algorithm = make_algorithm(spec)
    for tup in stream.tuples:
        algorithm.insert(PCB(tup))
    packets = _packets_with_strays(stream, stray_every)
    return _replay(algorithm, packets, use_batch, batch_size)


def resumed_decision_trace(
    spec: str,
    stream: RecordedStream,
    *,
    split: float = 0.5,
    stray_every: int = 13,
    use_batch: bool = False,
    batch_size: int = 64,
) -> List[Decision]:
    """:func:`decision_trace` with a snapshot/restore mid-stream.

    Replays the first ``split`` fraction of the packets, snapshots the
    structure through :mod:`repro.recovery.snapshot`, restores a fresh
    instance from the bytes, and replays the rest on the restored
    structure.  By the restore guarantee, the concatenated trace must
    equal the uninterrupted :func:`decision_trace` -- the golden suite
    asserts exactly that, making every committed golden also a restore
    conformance witness.
    """
    from ..core.pcb import PCB  # local: keep module import light
    from ..recovery.snapshot import (  # lazy: recovery sits above fastpath
        restore_bytes,
        snapshot_bytes,
    )

    if not 0.0 <= split <= 1.0:
        raise ValueError(f"split must be in [0, 1], got {split}")
    algorithm = make_algorithm(spec)
    for tup in stream.tuples:
        algorithm.insert(PCB(tup))
    packets = _packets_with_strays(stream, stray_every)
    cut = int(len(packets) * split)
    head = _replay(algorithm, packets[:cut], use_batch, batch_size)
    algorithm = restore_bytes(snapshot_bytes(algorithm))
    return head + _replay(algorithm, packets[cut:], use_batch, batch_size)


def _packets_with_strays(
    stream: RecordedStream, stray_every: int
) -> List[Tuple[FourTuple, PacketKind]]:
    """The stream's packets with the deterministic stray interleave."""
    if stray_every < 1:
        raise ValueError(f"stray_every must be >= 1, got {stray_every}")
    packets: List[Tuple[FourTuple, PacketKind]] = []
    for position, (tup, kind) in enumerate(stream.packets):
        packets.append((tup, kind))
        if (position + 1) % stray_every == 0:
            stray_kind = (
                PacketKind.DATA if (position // stray_every) % 2 else PacketKind.ACK
            )
            packets.append((stray_tuple(position), stray_kind))
    return packets


def _replay(
    algorithm,
    packets: List[Tuple[FourTuple, PacketKind]],
    use_batch: bool,
    batch_size: int,
) -> List[Decision]:
    if use_batch:
        results = []
        for start in range(0, len(packets), batch_size):
            results.extend(
                algorithm.lookup_batch(packets[start:start + batch_size])
            )
    else:
        results = [algorithm.lookup(tup, kind) for tup, kind in packets]
    return [
        [int(result.found), result.examined, int(result.cache_hit)]
        for result in results
    ]


#: One churn operation: ``("insert", id)``, ``("remove", id)``, or
#: ``("lookup", id, "data"|"ack")`` -- connection ids are stable ints
#: that :func:`churn_tuple` maps to four-tuples, so an op list is a
#: plain JSON-able value any structure can replay.
ChurnOp = Tuple

#: Caps on the churn id space: above these the address/port folding in
#: :func:`churn_tuple` starts reusing four-tuples for distinct ids.
_CHURN_ID_LIMIT = 20000


def churn_tuple(index: int) -> FourTuple:
    """The four-tuple for churn connection id ``index`` (stable)."""
    return FourTuple(
        IPv4Address("10.0.0.1"),
        1521,
        IPv4Address("10.2.0.0") + (index % 65534 + 1),
        40000 + index % 20000,
    )


def churn_ops(seed: int, *, steps: int = 4000) -> List[ChurnOp]:
    """A deterministic churn walk mirroring ``ChurnStormWorkload``.

    Each step is a biased coin flip: insert a fresh connection, remove
    a random live one, or look one up (half the lookups target live
    connections, half target fresh never-inserted ids -- guaranteed
    misses, exercising the non-interning probe path).  The op list is
    valid by construction: every remove names a live connection.
    """
    if not 1 <= steps <= _CHURN_ID_LIMIT:
        raise ValueError(
            f"steps must be in [1, {_CHURN_ID_LIMIT}], got {steps}"
        )
    rng = random.Random(seed)
    ops: List[ChurnOp] = []
    live: List[int] = []
    next_id = 0
    for _ in range(steps):
        action = rng.random()
        if action < 0.25 or not live:
            ops.append(("insert", next_id))
            live.append(next_id)
            next_id += 1
        elif action < 0.5:
            victim = rng.randrange(len(live))
            live[victim], live[-1] = live[-1], live[victim]
            ops.append(("remove", live.pop()))
        else:
            if rng.random() < 0.5:
                target = live[rng.randrange(len(live))]
            else:
                target = next_id  # never inserted: a guaranteed miss
                next_id += 1
            kind = "data" if rng.random() < 0.5 else "ack"
            ops.append(("lookup", target, kind))
    return ops


def mutation_trace(
    spec: str,
    ops: List[ChurnOp],
    *,
    use_batch: bool = False,
    batch_size: int = 32,
):
    """Replay a churn op list through ``spec``.

    Returns ``(decisions, algorithm)``: the decision trace of the
    lookups (same triples as :func:`decision_trace`) and the mutated
    structure itself, so callers can audit what the churn left behind
    (live population, interned keys).  With ``use_batch=True``, runs
    of consecutive lookups go through ``lookup_batch`` in
    ``batch_size`` chunks; mutations flush the pending batch first,
    preserving op order exactly.
    """
    algorithm = make_algorithm(spec)
    decisions = _replay_ops(algorithm, ops, use_batch, batch_size)
    return decisions, algorithm


def resumed_mutation_trace(
    spec: str,
    ops: List[ChurnOp],
    *,
    split: float = 0.5,
    use_batch: bool = False,
    batch_size: int = 32,
):
    """:func:`mutation_trace` with a snapshot/restore mid-churn.

    Replays the first ``split`` fraction of the op list, snapshots,
    restores a fresh structure from the bytes, and replays the rest on
    it.  Returns ``(decisions, algorithm)`` like
    :func:`mutation_trace`; the concatenated decisions must equal the
    uninterrupted replay's.  This is the hardest restore case for
    layout-carrying structures (cuckoo kickout state, MTF recency
    order): the churn keeps mutating *after* the restore.
    """
    from ..recovery.snapshot import (  # lazy: recovery sits above fastpath
        restore_bytes,
        snapshot_bytes,
    )

    if not 0.0 <= split <= 1.0:
        raise ValueError(f"split must be in [0, 1], got {split}")
    algorithm = make_algorithm(spec)
    cut = int(len(ops) * split)
    decisions = _replay_ops(algorithm, ops[:cut], use_batch, batch_size)
    algorithm = restore_bytes(snapshot_bytes(algorithm))
    decisions.extend(
        _replay_ops(algorithm, ops[cut:], use_batch, batch_size)
    )
    return decisions, algorithm


def _replay_ops(
    algorithm,
    ops: List[ChurnOp],
    use_batch: bool,
    batch_size: int,
) -> List[Decision]:
    from ..core.pcb import PCB  # local: keep module import light

    decisions: List[Decision] = []
    pending: List[Tuple[FourTuple, PacketKind]] = []

    def flush() -> None:
        for start in range(0, len(pending), batch_size):
            for result in algorithm.lookup_batch(
                pending[start:start + batch_size]
            ):
                decisions.append(
                    [int(result.found), result.examined, int(result.cache_hit)]
                )
        pending.clear()

    for op in ops:
        if op[0] == "insert":
            flush()
            algorithm.insert(PCB(churn_tuple(op[1])))
        elif op[0] == "remove":
            flush()
            algorithm.remove(churn_tuple(op[1]))
        elif op[0] == "lookup":
            kind = PacketKind.DATA if op[2] == "data" else PacketKind.ACK
            if use_batch:
                pending.append((churn_tuple(op[1]), kind))
            else:
                result = algorithm.lookup(churn_tuple(op[1]), kind)
                decisions.append(
                    [int(result.found), result.examined, int(result.cache_hit)]
                )
        else:
            raise ValueError(f"unknown churn op {op!r}")
    flush()
    return decisions
