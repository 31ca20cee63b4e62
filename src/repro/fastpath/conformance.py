"""Golden-trace conformance machinery.

A *decision trace* is the per-packet record of everything the paper's
cost model sees from one lookup: whether a PCB was found, how many PCBs
were examined, and whether a cache slot satisfied the probe.  Two
structures that produce identical decision traces on a stream are
indistinguishable to every experiment in this repository.

:func:`replay` is the one driver: it replays an op list --
``("insert", tup)``, ``("remove", tup)`` and ``("lookup", tup, kind)``
-- through any structure and returns the trace as compact
``[found, examined, cache_hit]`` triples, one call at a time or in
``lookup_batch`` chunks, optionally snapshot-restored mid-stream.  A
recorded TPC/A stream becomes its population then its packets, with a
deterministic sprinkle of absent-key lookups so the not-found path is
covered (:func:`stream_ops`); a churn walk (:func:`churn_ops`) becomes
its inserts, removes and lookups through :func:`churn_tuple`
(:func:`walk_ops`).  ``tests/golden/generate_golden.py`` records the
reference algorithms' traces into ``tests/golden/*.json``, and the
conformance matrix (``tests/conformance_matrix.py``) replays every
spec x mode x stream cell against them.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.stats import PacketKind
from ..packet.addresses import FourTuple, IPv4Address
from ..workload.adversarial import ChurnOp, churn_tuple, churn_walk
from ..workload.record import RecordedStream, record_tpca_stream
from ..workload.tpca import SERVER_ADDRESS, SERVER_PORT

__all__ = [
    "Decision",
    "ChurnOp",
    "Op",
    "churn_ops",
    "churn_tuple",
    "golden_ops",
    "golden_stream",
    "replay",
    "stray_tuple",
    "stream_ops",
    "walk_ops",
]

#: One lookup decision: ``[found, examined, cache_hit]`` with 0/1 flags
#: (compact and JSON-stable).
Decision = List[int]

#: One replay operation: ``("insert", tup)``, ``("remove", tup)`` or
#: ``("lookup", tup, kind)``.
Op = Tuple


def golden_stream(
    seed: int, *, n_users: int = 48, duration: float = 40.0
) -> RecordedStream:
    """The seeded TPC/A stream one golden file is recorded from."""
    return record_tpca_stream(n_users, duration, seed)


#: Stray remotes sit in the 203.0.113.0/24 documentation block.
_STRAY_BASE = IPv4Address("203.0.113.0")


def stray_tuple(index: int) -> FourTuple:
    """A deterministic four-tuple that is never installed.

    Addressed to the TPC/A server from the 203.0.113.0/24
    documentation block, disjoint from the workload's 10/8 clients, so
    these keys always miss.
    """
    return FourTuple(
        SERVER_ADDRESS,
        SERVER_PORT,
        _STRAY_BASE + (index % 251),
        45000 + (index % 1000),
    )


#: A stray lookup follows every this-many packets of a stream.
_STRAY_EVERY = 13


def stream_ops(stream: RecordedStream) -> List[Op]:
    """A recorded stream as ops: its population, then its packets.

    Every 13th packet is followed by a lookup of an absent key
    (alternating DATA/ACK kinds), so traces exercise the miss path of
    every cache and chain.
    """
    ops: List[Op] = [("insert", tup) for tup in stream.tuples]
    for position, (tup, kind) in enumerate(stream.packets):
        ops.append(("lookup", tup, kind))
        if (position + 1) % _STRAY_EVERY == 0:
            stray_kind = (
                PacketKind.DATA if (position // _STRAY_EVERY) % 2 else PacketKind.ACK
            )
            ops.append(("lookup", stray_tuple(position), stray_kind))
    return ops


def churn_ops(seed: int, *, steps: int = 4000) -> List[ChurnOp]:
    """The seeded churn walk (:func:`~repro.workload.adversarial.
    churn_walk`, the one ``ChurnStormWorkload`` applies) at an even
    grow bias, drawn from ``random.Random(seed)``."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return list(churn_walk(random.Random(seed), steps))


def walk_ops(walk: Sequence[ChurnOp]) -> List[Op]:
    """A churn walk as ops: each connection id through :func:`churn_tuple`.

    Every op builds its own four-tuple, so structures find live
    connections by equality, never by object identity.
    """
    ops: List[Op] = []
    for op in walk:
        if op[0] == "lookup":
            kind = PacketKind.DATA if op[2] == "data" else PacketKind.ACK
            ops.append(("lookup", churn_tuple(op[1]), kind))
        elif op[0] in ("insert", "remove"):
            ops.append((op[0], churn_tuple(op[1])))
        else:
            raise ValueError(f"unknown churn op {op!r}")
    return ops


def golden_ops(golden: dict) -> List[Op]:
    """The op list a golden file's header names.

    A churn golden (``{"churn": {"seed", "steps"}}``) replays its
    :func:`churn_ops` walk, a TPC/A one (``{"stream": {"seed",
    "n_users", "duration"}}``) its :func:`golden_stream`.
    """
    if "churn" in golden:
        params = golden["churn"]
        return walk_ops(churn_ops(params["seed"], steps=params["steps"]))
    params = golden["stream"]
    return stream_ops(
        golden_stream(
            params["seed"],
            n_users=params["n_users"],
            duration=params["duration"],
        )
    )


def replay(
    algorithm,
    ops: Sequence[Op],
    *,
    chunk: int = 64,
    batched: bool = False,
    restore_after: Optional[int] = None,
    tick: Optional[Callable[[], None]] = None,
):
    """Replay ``ops`` through ``algorithm``; return its decision trace.

    Returns ``(decisions, algorithm)``: one ``[found, examined,
    cache_hit]`` triple per lookup, and the structure the replay ended
    on, so callers can audit what it holds (live population, interned
    keys).  Lookups between two mutations are cut into chunks of
    ``chunk`` packets; with ``batched`` each chunk is one
    ``lookup_batch`` call, otherwise one ``lookup`` call per packet.
    Every insert or remove flushes the pending chunk first, preserving
    op order exactly, so batching must not change a single decision.

    With ``restore_after=n``, the replay flushes after the ``n``-th
    lookup, snapshots the structure through
    :mod:`repro.recovery.snapshot`, and replays the rest on a fresh
    instance restored from the bytes -- by the restore guarantee the
    trace must equal the uninterrupted one.  ``tick``, when given, is
    called before every chunk and every mutation (a virtual clock for
    the hooks that timestamp what they see).
    """
    from ..core.pcb import PCB  # local: keep module import light
    from ..recovery.snapshot import (  # lazy: recovery sits above fastpath
        restore_bytes,
        snapshot_bytes,
    )

    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if restore_after is not None and restore_after < 1:
        raise ValueError(f"restore_after must be >= 1, got {restore_after}")
    decisions: List[Decision] = []
    pending: List[Tuple[FourTuple, PacketKind]] = []
    lookups = 0

    def flush() -> None:
        for start in range(0, len(pending), chunk):
            packets = pending[start:start + chunk]
            if tick is not None:
                tick()
            if batched:
                results = algorithm.lookup_batch(packets)
            else:
                results = [algorithm.lookup(tup, kind) for tup, kind in packets]
            decisions.extend(
                [int(result.found), result.examined, int(result.cache_hit)]
                for result in results
            )
        pending.clear()

    for op in ops:
        if op[0] == "lookup":
            pending.append((op[1], op[2]))
            lookups += 1
            if lookups == restore_after:
                flush()
                algorithm = restore_bytes(snapshot_bytes(algorithm))
            continue
        flush()
        if tick is not None:
            tick()
        if op[0] == "insert":
            algorithm.insert(PCB(op[1]))
        elif op[0] == "remove":
            algorithm.remove(op[1])
        else:
            raise ValueError(f"unknown op {op!r}")
    flush()
    if restore_after is not None and restore_after > lookups:
        raise ValueError(
            f"restore_after={restore_after} but the ops hold {lookups} lookups"
        )
    return decisions, algorithm
