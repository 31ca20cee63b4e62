"""Per-call ``lookup`` and ``lookup_batch`` in lockstep, every hook attached.

``lookup_batch`` records statistics and feeds every hook once per batch
instead of once per packet.  Watching must not change what is watched,
and batching must not change what the watchers see: for each spec and
chunk size, the same stream is replayed twice with a span collector
(plus traffic characterizer), a tracer, a connection reaper and a
profiler attached -- once packet by packet, once in ``lookup_batch``
chunks -- and everything the hooks recorded must agree: statistics,
spans, sketch estimates, trace events (timestamps included), reaper
touches and profiler counts.

These are the hooks rows of the conformance matrix
(``conformance_matrix.py``): the oracle of a batched cell is the
per-call replay of the same cell.  The driver's ``tick`` advances a
virtual clock once per chunk and once per mutation in both replays, so
span times, reaper touches and trace times line up packet for packet.
Supervised rows run under a ``ShardSupervisor`` that crashes a shard
mid-stream and recovers it warm, timed on the same virtual clock.
"""

from __future__ import annotations

import pytest

from conformance_matrix import Mode, build, lookups, ops
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.fastpath.conformance import replay
from repro.lifecycle import ConnectionReaper
from repro.obs.profile import LookupProfiler
from repro.obs.sketch import TrafficCharacterizer
from repro.obs.spans import SpanCollector
from repro.obs.trace import RingBufferSink, Tracer

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
#: Flow-stable sharded specs, for the supervised rows.
SUPERVISED_SPECS = [
    "sharded-fast-sequent:shards=4,steer=sticky,h=19",
    "sharded-fast-cuckoo:shards=4",
]
CHUNKS = [1, 2, 7, 256]
#: The seed-202 golden TPC/A stream and the churn_seed404 golden walk.
STREAMS = ["churn_seed404", "tpca_seed202"]


class Clock:
    """Virtual time, moved by the replay driver."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self) -> None:
        self.now += 1.0


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


def observed_replay(spec, stream, mode, batched):
    """Replay one cell with every hook attached; return what they saw."""
    clock = Clock()
    algorithm = build(spec, stream, mode, clock=clock)
    collector = SpanCollector(sample_every=5, clock=clock).attach(algorithm)
    characterizer = TrafficCharacterizer().attach(collector)
    finished = []
    collector.add_span_observer(lambda span: finished.append(span.to_dict()))
    sink = RingBufferSink(capacity=1 << 20)
    algorithm.tracer = Tracer(sink, clock=clock)
    reaper = RecordingReaper(algorithm, idle_timeout=1e9, clock=clock)
    profiler = LookupProfiler(sample_every=3).attach(algorithm)
    replay(algorithm, ops(stream), chunk=mode.chunk, batched=batched, tick=clock.tick)
    events = list(sink.events)
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
        "recoveries": [event.mode for event in getattr(algorithm, "events", ())],
    }


def assert_lockstep(spec, stream, mode):
    per_call = observed_replay(spec, stream, mode, batched=False)
    batched = observed_replay(spec, stream, mode, batched=True)
    for key in per_call:
        assert batched[key] == per_call[key], key
    # The replay exercised every hook, not an idle one.
    count = lookups(stream)
    assert per_call["stats"]["lookups"] == count
    assert per_call["span_counters"][0] == count
    assert per_call["spans"] and per_call["touches"]
    assert per_call["profiler"][:2] == (count, count // 3)
    assert sum(e.kind == "lookup" for e in per_call["events"]) == count
    assert per_call["recoveries"] == (["warm"] if mode.crash is not None else [])


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("spec", SPECS)
def test_batched_hooks_match_per_call(spec, chunk, stream):
    assert_lockstep(spec, stream, Mode(chunk=chunk))


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("spec", SUPERVISED_SPECS)
def test_supervised_hooks_match_per_call(spec, stream):
    """Under a supervisor that crashes a shard mid-stream and recovers
    it warm, the hooks see the same per call and batched (the
    supervisor times its recoveries on the virtual clock too)."""
    assert_lockstep(spec, stream, Mode(chunk=7, crash=1))


def test_fast_batches_count_once_with_hooks_attached():
    algorithm = make_algorithm("fast-sequent:h=19")
    SpanCollector().attach(algorithm)
    LookupProfiler().attach(algorithm)
    algorithm.tracer = Tracer(RingBufferSink())
    ConnectionReaper(algorithm, idle_timeout=60.0)
    # The population, then every lookup in one lookup_batch call.
    count = lookups("tpca_seed202")
    replay(algorithm, ops("tpca_seed202"), chunk=count, batched=True)
    counters = algorithm.fastpath_counters
    assert (counters.batch_calls, counters.batched_lookups) == (1, count)


@pytest.mark.parametrize("spec", [
    "fast-sequent:h=19",
    "sharded-fast-sequent:shards=4,steer=hash,h=19",
])
def test_batch_inside_an_outer_packet_context_joins_it(spec):
    """Under a context an outer layer opened, a batch joins its span."""
    population = [op for op in ops("tpca_seed202") if op[0] == "insert"]
    first, second = population[0][1], population[1][1]
    packets = [("lookup", first, PacketKind.DATA), ("lookup", second, PacketKind.ACK)]

    def joined(batched):
        algorithm = make_algorithm(spec)
        collector = SpanCollector(sample_every=1).attach(algorithm)
        replay(algorithm, population)
        collector.open_packet(first, PacketKind.DATA, owner="outer")
        replay(algorithm, packets, batched=batched)
        span = collector.close_packet("outer")
        return span.to_dict(), collector.packets_seen

    assert joined(batched=True) == joined(batched=False)
    span, seen = joined(batched=True)
    assert seen == 1
    assert [stage["name"] for stage in span["stages"]].count("lookup") == 2
