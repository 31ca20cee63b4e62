"""Benchmark inputs, the correctness oracle, and the replay loop.

Every workload is reduced to an :class:`OpStream`: a starting population
of four-tuples plus an ordered list of operations -- ``lookup_batch``
chunks, inserts and removes -- each lookup chunk carrying the found
flags a dict oracle computed for it.  The offline workloads time
:func:`replay` of that stream; ``serve-loopback`` times real sockets
(``serving.py``) and replays its stream only in the traced pass.

Only public APIs of ``repro`` are used.  ``spec.use_checkout_src()``
must have run before this module is imported.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import random
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import DemuxError, PCB, PacketKind, make_algorithm
from repro.fastpath.conformance import churn_tuple
from repro.obs import SpanCollector, TrafficCharacterizer
from repro.packet.addresses import FourTuple
from repro.serve import LoadConfig, frame_plan, logical_tuple
from repro.serve.protocol import FRAME_ACK
from repro.workload import TPCAConfig

import spec

LOOKUP, INSERT, REMOVE = 0, 1, 2


@dataclasses.dataclass
class OpStream:
    """A starting population and the operations applied to it."""

    population: Tuple
    #: ``(LOOKUP, packets, found_flags)``, ``(INSERT, tup)`` or
    #: ``(REMOVE, tup)``.
    ops: List[tuple]

    def lookup_packets(self) -> List[tuple]:
        return [
            packet for op in self.ops if op[0] == LOOKUP for packet in op[1]
        ]


def with_oracle(population: Sequence, raw_ops: List[tuple]) -> OpStream:
    """Attach the dict oracle's found flags to every lookup chunk.

    A lookup must find a PCB exactly when its tuple is live at that
    point of the stream; inserts and removes are checked to be legal.
    """
    live = set(population)
    if len(live) != len(population):
        raise ValueError("population holds duplicate four-tuples")
    ops = []
    for op in raw_ops:
        if op[0] == LOOKUP:
            ops.append((LOOKUP, op[1], [tup in live for tup, _ in op[1]]))
            continue
        if op[0] == INSERT:
            if op[1] in live:
                raise ValueError(f"insert of live tuple {op[1]}")
            live.add(op[1])
        else:
            live.remove(op[1])
        ops.append(op)
    return OpStream(tuple(population), ops)


def chunked(packets: Sequence, chunk: int) -> List[tuple]:
    return [
        (LOOKUP, list(packets[start:start + chunk]))
        for start in range(0, len(packets), chunk)
    ]


# -- the four workloads' inputs ------------------------------------------


def churn_stream(params: dict, seed: int) -> OpStream:
    """``population`` live connections, then ``ops`` mixed operations.

    The mix is the repository's churn-storm stress mix, step for step
    the coin flips of ``conformance.churn_ops`` (and
    ``ChurnStormWorkload``): 25% insert a fresh connection, 25% remove
    a random live one, 50% look one up, half of those lookups
    guaranteed misses on fresh, never-inserted ids.  It is a stress
    mix, not a measured traffic model.  The walk starts from
    ``population`` live connections and runs longer than ``churn_ops``
    allows (it caps walks at 20,000 steps).  Ids map to four-tuples
    through ``churn_tuple``.  Runs of lookups between two mutations
    form one ``lookup_batch`` chunk.
    """
    rng = random.Random(seed)
    live = list(range(params["population"]))
    next_id = len(live)
    raw: List[tuple] = []
    pending: List[tuple] = []
    for _ in range(params["ops"]):
        action = rng.random()
        if action < 0.5 or not live:
            if pending:
                raw.append((LOOKUP, pending))
                pending = []
            if action < 0.25 or not live:
                raw.append((INSERT, churn_tuple(next_id)))
                live.append(next_id)
                next_id += 1
            else:
                victim = rng.randrange(len(live))
                live[victim], live[-1] = live[-1], live[victim]
                raw.append((REMOVE, churn_tuple(live.pop())))
        else:
            if rng.random() < 0.5:
                target = live[rng.randrange(len(live))]
            else:
                target = next_id  # never inserted: a guaranteed miss
                next_id += 1
            kind = PacketKind.DATA if rng.random() < 0.5 else PacketKind.ACK
            pending.append((churn_tuple(target), kind))
    if pending:
        raw.append((LOOKUP, pending))
    population = [churn_tuple(i) for i in range(params["population"])]
    return with_oracle(population, raw)


def serve_population(users: int) -> List:
    config = TPCAConfig(n_users=users)
    return [config.user_tuple(index) for index in range(users)]


def serve_plans(frames: int, seed: int, client_ids: Sequence[int]):
    """Each connection's ``frame_plan``: 30% ACKs, DATA of 16-128 B."""
    load = LoadConfig(clients=len(client_ids), frames=frames, seed=seed)
    return [frame_plan(load, client_id) for client_id in client_ids]


def serve_stream(params: dict, seed: int, client_ids: Sequence[int]) -> OpStream:
    """One serve cell as the server's demux sees it, canonically ordered.

    The sessions are installed, the connections' frames interleave
    one-for-one (the real order depends on the scheduler), and the
    sessions are removed -- so the in-process ledger of serve-loopback
    is deterministic.
    """
    tuples = [logical_tuple(client_id) for client_id in client_ids]
    plans = serve_plans(params["frames"], seed, client_ids)
    packets = []
    for step in zip(*plans):
        for tup, (kind, _) in zip(tuples, step):
            packets.append(
                (tup, PacketKind.ACK if kind == FRAME_ACK else PacketKind.DATA)
            )
    raw = [(INSERT, tup) for tup in tuples]
    raw += chunked(packets, 256)
    raw += [(REMOVE, tup) for tup in tuples]
    return with_oracle(serve_population(params["users"]), raw)


# -- configurations ------------------------------------------------------


def build(config: str, population: Sequence):
    """A populated structure for one configuration (see ``spec.CONFIGS``)."""
    algorithm = make_algorithm(spec.CONFIGS[config])
    if config == spec.OBSERVED:
        collector = SpanCollector()
        TrafficCharacterizer().attach(collector)
        collector.attach(algorithm)
    for tup in population:
        algorithm.insert(PCB(tup))
    return algorithm


def build_all(population: Sequence) -> Dict[str, object]:
    return {config: build(config, population) for config in spec.CONFIGS}


#: Objects the caller owns (the connections) or the interpreter shares.
_NOT_RETAINED = (
    PCB, FourTuple, type, types.ModuleType, types.FunctionType,
    types.BuiltinFunctionType, types.CodeType,
)


def retained_bytes(structure) -> int:
    """Bytes reachable from ``structure``: its own memory, not its PCBs.

    ``sys.getsizeof`` summed over the object graph below the structure,
    each object once, leaving out the PCBs and four-tuples the caller
    handed in and shared interpreter objects (types, functions,
    modules).  Numpy arrays count their buffers.  Deterministic, and
    cheap enough for every run, where tracing the allocations with
    ``tracemalloc`` slowed the 20,000-PCB builds about ninefold.
    """
    seen = set()
    stack = [structure]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
            continue
        if isinstance(obj, _NOT_RETAINED):
            continue
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


# -- the replay loop -----------------------------------------------------


@contextlib.contextmanager
def frozen_gc():
    """Keep cyclic GC off the harness's inputs while a region is timed.

    The ~10^4-10^5 stream objects are benchmark inputs; a collection walking
    them at a random point is noise, not program cost.  Only the young
    generations are collected first: a full collection would walk every
    input again before each cell, and what it might free is frozen only
    until the region ends.
    """
    gc.collect(1)
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@dataclasses.dataclass
class Replay:
    """Per-operation-type totals of one replay."""

    #: Nanoseconds inside the calls, indexed by LOOKUP/INSERT/REMOVE.
    ns: List[int]
    #: Operations, indexed the same way (lookups count packets).
    count: List[int]
    #: Lookup calls made (chunks).
    calls: int
    failed: int

    @property
    def total_ns(self) -> int:
        return sum(self.ns)

    @property
    def total_ops(self) -> int:
        return sum(self.count)


@dataclasses.dataclass
class CellResult:
    """One timed cell: work done, time taken, calls timed, checks failed."""

    ops: int
    seconds: float
    #: Nanoseconds of every call, in call order (the same order each round).
    latencies: List[int]
    failed: int


def _mismatches(results, packets, flags) -> int:
    """Oracle check of one chunk: found iff live, and the right PCB."""
    if len(results) != len(packets):
        return len(packets)
    bad = 0
    for result, (tup, _), live in zip(results, packets, flags):
        pcb = result.pcb
        if pcb is None:
            bad += live
        elif not live or pcb.four_tuple != tup:
            bad += 1
    return bad


def replay(
    algorithm,
    stream: OpStream,
    *,
    latencies: Optional[List[int]] = None,
    on_results: Optional[Callable[[list], None]] = None,
    batched: bool = True,
) -> Replay:
    """Apply ``stream.ops`` to ``algorithm``, timing each call.

    Only the calls into the program are on the clock; the oracle check
    and ``on_results`` (given each lookup chunk's results) run between
    them.  ``latencies`` collects every call's nanoseconds.
    ``batched=False`` replaces each ``lookup_batch`` with per-call
    ``lookup`` (the serving path).
    """
    clock = time.perf_counter_ns
    if batched:
        lookup_chunk = algorithm.lookup_batch
    else:
        lookup = algorithm.lookup

        def lookup_chunk(packets):
            return [lookup(tup, kind) for tup, kind in packets]

    insert = algorithm.insert
    remove = algorithm.remove
    ns = [0, 0, 0]
    count = [0, 0, 0]
    calls = failed = 0
    for op in stream.ops:
        kind = op[0]
        try:
            if kind == LOOKUP:
                packets = op[1]
                start = clock()
                results = lookup_chunk(packets)
                took = clock() - start
                failed += _mismatches(results, packets, op[2])
                if on_results is not None:
                    on_results(results)
                calls += 1
                size = len(packets)
            elif kind == INSERT:
                pcb = PCB(op[1])
                start = clock()
                insert(pcb)
                took = clock() - start
                size = 1
            else:
                start = clock()
                pcb = remove(op[1])
                took = clock() - start
                failed += pcb.four_tuple != op[1]
                size = 1
        except (DemuxError, KeyError):
            failed += len(op[1]) if kind == LOOKUP else 1
            continue
        ns[kind] += took
        count[kind] += size
        if latencies is not None:
            latencies.append(took)
    return Replay(ns, count, calls, failed)


def decision_signature(algorithm) -> Tuple[int, int, int, int]:
    """The paper's counts after a replay; identical on every round."""
    stats = algorithm.stats
    combined = stats.combined()
    return (
        stats.lookups,
        stats.examined_total,
        stats.cache_hits,
        combined.not_found,
    )
