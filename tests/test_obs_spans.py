"""Tests for repro.obs.spans: the packet-context state machine, the
flight recorder, cross-layer wiring (demux, coalescer, full stack),
and the JSONL dump/read round trip."""

import json

import pytest

from repro.core.bsd import BSDDemux
from repro.core.pcb import PCB
from repro.core.stats import PacketKind
from repro.obs.spans import (
    DEFAULT_SPAN_SAMPLE_EVERY,
    FlightRecorder,
    SpanCollector,
    write_spans_jsonl,
)
from repro.obs.trace import read_jsonl
from repro.smp.coalesce import BatchCoalescer
from repro.smp.sharded import ShardedDemux
from repro.workload.tpca import TPCAConfig, TPCAFullStackSimulation

from conftest import make_tuple


def _bsd_with_spans(n=8, sample_every=1):
    algorithm = BSDDemux()
    for i in range(n):
        algorithm.insert(PCB(make_tuple(i)))
    collector = SpanCollector(sample_every=sample_every).attach(algorithm)
    return algorithm, collector


class TestSpanCollectorStateMachine:
    def test_lookup_produces_span_with_lookup_stage(self):
        algorithm, collector = _bsd_with_spans()
        algorithm.lookup(make_tuple(3), PacketKind.DATA)
        spans = collector.recorder.all_spans()
        assert len(spans) == 1
        span = spans[0]
        assert span.outcome == "found"
        lookup = span.find_stage("lookup")
        assert lookup is not None
        assert lookup.data["algorithm"] == "bsd"
        assert lookup.data["examined"] >= 1
        assert lookup.data["found"] is True

    def test_miss_outcome(self):
        algorithm, collector = _bsd_with_spans(n=2)
        algorithm.lookup(make_tuple(99), PacketKind.DATA)
        (span,) = collector.recorder.all_spans()
        assert span.outcome == "miss"
        assert span.find_stage("lookup").data["found"] is False

    def test_only_opener_closes(self):
        collector = SpanCollector(sample_every=1)
        tup = make_tuple(0)
        opened = collector.open_packet(tup, PacketKind.DATA, owner="outer")
        # An inner layer joining the context gets the same span back
        # and cannot close it.
        joined = collector.open_packet(tup, PacketKind.DATA, owner="inner")
        assert joined is opened
        assert collector.close_packet("inner") is None
        assert collector.packets_seen == 1  # not double-counted
        span = collector.close_packet("outer")
        assert span is not None
        assert len(collector.recorder) == 1

    def test_terminal_stage_sets_outcome(self):
        collector = SpanCollector(sample_every=1)
        collector.open_packet(make_tuple(0), PacketKind.DATA, owner="stack")
        collector.stage("drop", reason="corrupt")
        span = collector.close_packet("stack")
        assert span.outcome == "dropped"
        assert span.find_stage("drop").data["reason"] == "corrupt"

        collector.open_packet(make_tuple(1), PacketKind.DATA, owner="stack")
        collector.stage("deliver", target="endpoint")
        assert collector.close_packet("stack").outcome == "delivered"

    def test_stage_outside_context_is_noop(self):
        collector = SpanCollector(sample_every=1)
        collector.stage("drop", reason="corrupt")  # must not raise
        assert len(collector.recorder) == 0

    def test_sampling_records_one_in_n(self):
        algorithm, collector = _bsd_with_spans(n=4, sample_every=4)
        for i in range(16):
            algorithm.lookup(make_tuple(i % 4), PacketKind.DATA)
        assert collector.packets_seen == 16
        assert collector.spans_finished == 4
        assert len(collector.recorder) == 4

    def test_packet_observers_fire_for_every_packet(self):
        algorithm, collector = _bsd_with_spans(n=4, sample_every=4)
        seen = []
        collector.add_packet_observer(
            lambda packets: seen.extend(tup for tup, _ in packets)
        )
        for i in range(8):
            algorithm.lookup(make_tuple(i % 4), PacketKind.DATA)
        assert len(seen) == 8  # unsampled packets included

    def test_span_observers_fire_per_sampled_span(self):
        algorithm, collector = _bsd_with_spans(n=4, sample_every=4)
        finished = []
        collector.add_span_observer(finished.append)
        for i in range(8):
            algorithm.lookup(make_tuple(i % 4), PacketKind.DATA)
        assert len(finished) == 2

    def test_note_reap_records_standalone_span(self):
        collector = SpanCollector(sample_every=64)
        span = collector.note_reap(make_tuple(0), "idle")
        assert span.outcome == "reaped"
        assert collector.reaps_recorded == 1
        assert len(collector.recorder) == 1

    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            SpanCollector(sample_every=0)

    def test_default_sampling_rate(self):
        assert SpanCollector().sample_every == DEFAULT_SPAN_SAMPLE_EVERY


class TestFlightRecorder:
    def test_per_connection_ring_overwrites(self):
        algorithm, collector = _bsd_with_spans(n=1)
        collector.recorder = FlightRecorder(per_connection=4)
        for _ in range(10):
            algorithm.lookup(make_tuple(0), PacketKind.DATA)
        assert len(collector.recorder) == 4
        assert collector.recorder.total_recorded == 10
        assert collector.recorder.overwritten == 6
        # The retained spans are the most recent four.
        ids = [s.span_id for s in collector.recorder.spans_for(make_tuple(0))]
        assert ids == sorted(ids)
        assert ids[-1] == 10

    def test_connection_lru_eviction(self):
        recorder = FlightRecorder(per_connection=2, max_connections=3)
        algorithm = BSDDemux()
        for i in range(5):
            algorithm.insert(PCB(make_tuple(i)))
        collector = SpanCollector(sample_every=1, recorder=recorder)
        collector.attach(algorithm)
        for i in range(5):
            algorithm.lookup(make_tuple(i), PacketKind.DATA)
        assert recorder.connection_count() == 3
        assert recorder.evicted_connections == 2
        assert recorder.spans_for(make_tuple(0)) == []
        assert len(recorder.spans_for(make_tuple(4))) == 1


class TestCoalescerSpans:
    def _stream(self, n_flows=4, repeats=4):
        # Interleaved arrivals: flow 0,1,2,3,0,1,2,3,...
        return [
            (make_tuple(i % n_flows), PacketKind.DATA)
            for i in range(n_flows * repeats)
        ]

    def _populated(self):
        algorithm = BSDDemux()
        for i in range(4):
            algorithm.insert(PCB(make_tuple(i)))
        return algorithm

    def test_stage_sequence_and_follower_flags(self):
        algorithm = self._populated()
        collector = SpanCollector(sample_every=1).attach(algorithm)
        coalescer = BatchCoalescer(
            algorithm, batch_size=16, spans=collector
        )
        coalescer.replay(self._stream())
        spans = collector.recorder.all_spans()
        assert len(spans) == 16
        for span in spans:
            assert span.stage_names() == ["coalesce", "lookup"]
        followers = [
            s.find_stage("coalesce").data["follower"] for s in spans
        ]
        assert sum(followers) == coalescer.train_followers == 12

    def test_span_order_is_delivery_order(self):
        # Spans (and packet observers) must see the sorted batch, not
        # arrival order: that ordering is the whole point of
        # coalescing and what the train detector measures.
        algorithm = self._populated()
        collector = SpanCollector(sample_every=1).attach(algorithm)
        order = []
        collector.add_packet_observer(
            lambda packets: order.extend(tup for tup, _ in packets)
        )
        BatchCoalescer(algorithm, batch_size=16, spans=collector).replay(
            self._stream()
        )
        arrival = [tup for tup, _ in self._stream()]
        assert order != arrival
        assert order == sorted(arrival, key=lambda t: t.key_bits())

    def test_span_path_matches_spanless_costs(self):
        # The two flush paths must make identical demux decisions.
        bare = self._populated()
        BatchCoalescer(bare, batch_size=16).replay(self._stream())
        observed = self._populated()
        collector = SpanCollector(sample_every=1).attach(observed)
        BatchCoalescer(observed, batch_size=16, spans=collector).replay(
            self._stream()
        )
        assert bare.stats.mean_examined == observed.stats.mean_examined
        assert bare.stats.hit_rate == observed.stats.hit_rate


class TestShardedSpans:
    def test_steer_stage_precedes_lookup(self):
        sharded = ShardedDemux(BSDDemux, 4)
        for i in range(8):
            sharded.insert(PCB(make_tuple(i)))
        collector = SpanCollector(sample_every=1).attach(sharded)
        sharded.lookup(make_tuple(3), PacketKind.DATA)
        (span,) = collector.recorder.all_spans()
        names = span.stage_names()
        assert names.index("steer") < names.index("lookup")
        steer = span.find_stage("steer")
        assert steer.data["shard"] in range(4)
        assert steer.data["migrated"] is False


class TestFullStackSpans:
    def test_stack_spans_reach_delivery_and_reap(self):
        from repro.core.sequent import SequentDemux

        collector = SpanCollector(sample_every=1)
        config = TPCAConfig(n_users=8, duration=15.0, seed=3)
        simulation = TPCAFullStackSimulation(
            config,
            SequentDemux(7),
            idle_timeout=5.0,
            spans=collector,
        )
        simulation.run()
        spans = collector.recorder.all_spans()
        assert spans, "full-stack run recorded no spans"
        outcomes = {s.outcome for s in spans}
        assert "delivered" in outcomes
        delivered = [s for s in spans if s.outcome == "delivered"]
        for span in delivered[:10]:
            names = span.stage_names()
            assert "lookup" in names
            assert names[-1] == "deliver"
        # Virtual timestamps, not wall-clock zeros.
        assert any(s.start > 0 for s in spans)


class TestJsonlRoundTrip:
    def _recorded(self, tmp_path):
        algorithm, collector = _bsd_with_spans(n=4)
        for i in range(8):
            algorithm.lookup(make_tuple(i % 4), PacketKind.DATA)
        path = tmp_path / "spans.jsonl"
        assert collector.to_jsonl(path) == 8
        return read_jsonl(path)

    def test_write_read_round_trip(self, tmp_path):
        records = self._recorded(tmp_path)
        assert len(records) == 8
        assert all(r["outcome"] == "found" for r in records)
        # Addresses are ints underneath; the dump names them as text.
        assert [r["four_tuple"] for r in records[:4]] == [
            [str(tup.local_addr), tup.local_port,
             str(tup.remote_addr), tup.remote_port]
            for tup in map(make_tuple, range(4))
        ]
        assert records[0]["four_tuple"][0] == "10.0.0.1"
        # Each line is standalone JSON.
        lines = (tmp_path / "spans.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_write_accepts_plain_dicts(self, tmp_path):
        records = self._recorded(tmp_path)
        path = tmp_path / "copy.jsonl"
        assert write_spans_jsonl(records, path) == len(records)
        assert read_jsonl(path) == records
