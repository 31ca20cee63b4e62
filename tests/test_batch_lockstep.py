"""Per-call ``lookup`` and ``lookup_batch`` in lockstep, every hook attached.

``lookup_batch`` records statistics and feeds every hook once per batch
instead of once per packet.  Watching must not change what is watched,
and batching must not change what the watchers see: for each spec and
chunk size, the same stream is replayed twice with a span collector
(plus traffic characterizer), a tracer, a connection reaper and a
profiler attached -- once packet by packet, once in ``lookup_batch``
chunks -- and everything the hooks recorded must agree: statistics,
spans, sketch estimates, trace events (timestamps aside), reaper
touches and profiler counts.

A virtual clock advances once per chunk in both replays, so span
times, reaper touches and trace times line up packet for packet.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.fastpath.conformance import churn_ops, churn_tuple, golden_stream
from repro.lifecycle import ConnectionReaper
from repro.obs.profile import LookupProfiler
from repro.obs.sketch import TrafficCharacterizer
from repro.obs.spans import SpanCollector
from repro.obs.trace import RingBufferSink, Tracer

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SPECS = [
    "fast-sequent:h=19",
    # Long chains: most lookups bisect a chain of ~48 PCBs.
    "fast-sequent:h=2",
    "fast-cuckoo",
    "sharded-fast-sequent:shards=4,steer=hash,h=19",
    "sharded-fast-sequent:shards=4,steer=sticky,h=19",
    # Round-robin steering keeps the per-packet path: one-packet
    # observer calls under ``lookup_batch``.
    "sharded-fast-sequent:shards=4,steer=rr,h=19",
    "sharded-fast-cuckoo:shards=4",
    "sequent:h=19",
]
CHUNKS = [1, 2, 7, 256]


def _golden(name):
    return json.loads((GOLDEN_DIR / name).read_text())


def tpca_ops():
    """The seed-202 golden TPC/A stream: its population, then lookups."""
    params = _golden("tpca_seed202.json")["stream"]
    stream = golden_stream(
        params["seed"], n_users=params["n_users"], duration=params["duration"]
    )
    ops = [("insert", tup) for tup in stream.tuples]
    ops += [("lookup", tup, kind) for tup, kind in stream.packets]
    return ops


def churn_seed404_ops():
    """The churn_seed404 golden walk, as four-tuple operations."""
    params = _golden("churn_seed404.json")["churn"]
    ops = []
    for op in churn_ops(params["seed"], steps=params["steps"]):
        if op[0] == "lookup":
            kind = PacketKind.DATA if op[2] == "data" else PacketKind.ACK
            ops.append(("lookup", churn_tuple(op[1]), kind))
        else:
            ops.append((op[0], churn_tuple(op[1])))
    return ops


STREAMS = {"tpca_seed202": tpca_ops(), "churn_seed404": churn_seed404_ops()}


class Clock:
    """Virtual time, moved by the replay driver."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class RecordingReaper(ConnectionReaper):
    """A reaper that also logs every touch with the time it landed."""

    def __init__(self, *args, **kwargs) -> None:
        self.touches = []
        super().__init__(*args, **kwargs)

    def note_touch(self, tup) -> None:
        self.touches.append((tup, self.now))
        super().note_touch(tup)

    def note_touches(self, tuples) -> None:
        tuples = list(tuples)
        self.touches.extend((tup, self.now) for tup in tuples)
        super().note_touches(tuples)


def observed_replay(spec, ops, chunk, batched):
    """Replay ``ops`` with every hook attached; return what they saw."""
    clock = Clock()
    algorithm = make_algorithm(spec)
    collector = SpanCollector(sample_every=5, clock=clock).attach(algorithm)
    characterizer = TrafficCharacterizer().attach(collector)
    finished = []
    collector.add_span_observer(lambda span: finished.append(span.to_dict()))
    tracer = Tracer(clock=clock)
    sink = tracer.attach(RingBufferSink(capacity=1 << 20))
    algorithm.tracer = tracer
    reaper = RecordingReaper(algorithm, idle_timeout=1e9, clock=clock)
    profiler = LookupProfiler(sample_every=3).attach(algorithm)

    pending = []

    def flush():
        for start in range(0, len(pending), chunk):
            packets = pending[start:start + chunk]
            clock.now += 1.0
            if batched:
                algorithm.lookup_batch(packets)
            else:
                for tup, kind in packets:
                    algorithm.lookup(tup, kind)
        pending.clear()

    for op in ops:
        if op[0] == "lookup":
            pending.append((op[1], op[2]))
            continue
        flush()
        clock.now += 1.0
        if op[0] == "insert":
            algorithm.insert(PCB(op[1]))
        else:
            algorithm.remove(op[1])
    flush()
    events = [event.to_dict() for event in sink.events]
    for event in events:
        del event["time"]
    return {
        "stats": algorithm.stats.as_dict(),
        "spans": finished,
        "span_counters": (
            collector.packets_seen,
            collector.spans_started,
            collector.spans_finished,
        ),
        "estimates": characterizer.estimates(),
        "events": events,
        "touches": reaper.touches,
        "last_touch": {
            pcb.four_tuple: reaper.last_touch(pcb.four_tuple)
            for pcb in algorithm
        },
        "profiler": (profiler.lookups, profiler.samples, profiler.overflowed),
    }


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("spec", SPECS)
def test_batched_hooks_match_per_call(spec, chunk, stream):
    ops = STREAMS[stream]
    per_call = observed_replay(spec, ops, chunk, batched=False)
    batched = observed_replay(spec, ops, chunk, batched=True)
    for key in per_call:
        assert batched[key] == per_call[key], key
    # The replay exercised every hook, not an idle one.
    lookups = sum(1 for op in ops if op[0] == "lookup")
    assert per_call["stats"]["lookups"] == lookups
    assert per_call["span_counters"][0] == lookups
    assert per_call["spans"] and per_call["touches"]
    assert per_call["profiler"][:2] == (lookups, lookups // 3)
    assert sum(e["kind"] == "lookup" for e in per_call["events"]) == lookups


def test_fast_batches_count_once_with_hooks_attached():
    ops = STREAMS["tpca_seed202"]
    algorithm = make_algorithm("fast-sequent:h=19")
    SpanCollector().attach(algorithm)
    LookupProfiler().attach(algorithm)
    algorithm.tracer = Tracer(RingBufferSink())
    ConnectionReaper(algorithm, idle_timeout=60.0)
    for op in ops:
        if op[0] == "insert":
            algorithm.insert(PCB(op[1]))
    packets = [(op[1], op[2]) for op in ops if op[0] == "lookup"]
    algorithm.lookup_batch(packets)
    counters = algorithm.fastpath_counters
    assert (counters.batch_calls, counters.batched_lookups) == (
        1, len(packets)
    )


@pytest.mark.parametrize("spec", [
    "fast-sequent:h=19",
    "sharded-fast-sequent:shards=4,steer=hash,h=19",
])
def test_batch_inside_an_outer_packet_context_joins_it(spec):
    """Under a context an outer layer opened, a batch joins its span."""
    ops = STREAMS["tpca_seed202"]
    tuples = [op[1] for op in ops if op[0] == "insert"]
    packets = [(tuples[0], PacketKind.DATA), (tuples[1], PacketKind.ACK)]

    def joined(batched):
        algorithm = make_algorithm(spec)
        collector = SpanCollector(sample_every=1).attach(algorithm)
        for tup in tuples:
            algorithm.insert(PCB(tup))
        collector.open_packet(tuples[0], PacketKind.DATA, owner="outer")
        if batched:
            algorithm.lookup_batch(packets)
        else:
            for tup, kind in packets:
                algorithm.lookup(tup, kind)
        span = collector.close_packet("outer")
        return span.to_dict(), collector.packets_seen

    assert joined(batched=True) == joined(batched=False)
    span, seen = joined(batched=True)
    assert seen == 1
    assert [stage["name"] for stage in span["stages"]].count("lookup") == 2
