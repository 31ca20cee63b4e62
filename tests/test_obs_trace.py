"""Tests for repro.obs.trace: events, sinks, tracer, and the guarantee
that tracing never perturbs statistics or determinism."""

import io
import json

import pytest

from repro.core.bsd import BSDDemux
from repro.core.sequent import SequentDemux
from repro.core.stats import PacketKind
from repro.obs.trace import (
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    TraceSink,
    Tracer,
    read_jsonl,
)
from repro.sim.engine import Simulator
from repro.workload.tpca import TPCAConfig, TPCADemuxSimulation

from conftest import make_pcbs, make_tuple


class TestTraceEvent:
    def test_to_dict_lookup_fields(self):
        event = TraceEvent(
            time=1.5, kind="lookup", algorithm="bsd",
            four_tuple=make_tuple(0), packet_kind="data",
            examined=3, cache_hit=True, found=True,
        )
        record = event.to_dict()
        assert record["time"] == 1.5
        assert record["kind"] == "lookup"
        assert record["algorithm"] == "bsd"
        assert record["examined"] == 3
        assert record["cache_hit"] is True
        assert record["found"] is True
        assert record["four_tuple"] == ["10.0.0.1", 1521, "10.1.0.1", 40000]

    def test_to_dict_omits_empty_fields(self):
        record = TraceEvent(time=0.0, kind="sim.event", detail="cb").to_dict()
        assert record == {"time": 0.0, "kind": "sim.event", "detail": "cb"}

    def test_is_json_serializable(self):
        event = TraceEvent(time=0.25, kind="insert", four_tuple=make_tuple(1))
        assert json.loads(json.dumps(event.to_dict()))["kind"] == "insert"


class TestRingBufferSink:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(0)

    def test_below_capacity_keeps_everything(self):
        sink = RingBufferSink(10)
        for i in range(5):
            sink.emit(TraceEvent(time=float(i), kind="lookup"))
        assert len(sink) == 5
        assert sink.dropped == 0
        assert [e.time for e in sink.events] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_wraparound_drops_oldest(self):
        sink = RingBufferSink(3)
        for i in range(8):
            sink.emit(TraceEvent(time=float(i), kind="lookup"))
        assert len(sink) == 3
        assert sink.total_emitted == 8
        assert sink.dropped == 5
        # The window is the *most recent* three, oldest first.
        assert [e.time for e in sink.events] == [5.0, 6.0, 7.0]

    def test_clear(self):
        sink = RingBufferSink(2)
        for i in range(4):
            sink.emit(TraceEvent(time=float(i), kind="lookup"))
        sink.clear()
        assert len(sink) == 0
        assert sink.dropped == 0


class TestJsonlSink:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(TraceEvent(time=0.0, kind="insert",
                                 four_tuple=make_tuple(0)))
            sink.emit(TraceEvent(time=1.0, kind="lookup", algorithm="bsd",
                                 packet_kind="ack", examined=2))
        records = read_jsonl(path)
        assert len(records) == 2
        assert records[0]["kind"] == "insert"
        assert records[1]["examined"] == 2
        assert records[1]["packet_kind"] == "ack"

    def test_accepts_open_file_object(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.emit(TraceEvent(time=0.0, kind="remove"))
        sink.close()  # must not close a caller-owned handle
        assert json.loads(buffer.getvalue())["kind"] == "remove"


class TestTracer:
    def test_disabled_tracer_emits_nothing(self):
        sink = RingBufferSink(8)
        tracer = Tracer(sink, enabled=False)
        tracer.emit(TraceEvent(time=0.0, kind="lookup"))
        assert len(sink) == 0

    def test_emit_flush_and_close_act_on_the_sink(self):
        calls = []

        class Recording(TraceSink):
            def emit(self, event):
                calls.append(event.kind)

            def flush(self):
                calls.append("flush")

            def close(self):
                calls.append("close")

        sink = Recording()
        tracer = Tracer(sink)
        assert tracer.sink is sink
        tracer.emit_insert("bsd", make_tuple(0))
        tracer.flush()
        tracer.close()
        assert calls == ["insert", "flush", "close"]

    def test_clock_stamps_events(self):
        ring = RingBufferSink(8)
        times = iter([3.25, 7.5])
        tracer = Tracer(ring, clock=lambda: next(times))
        tracer.emit_insert("bsd", make_tuple(0))
        tracer.emit_remove("bsd", make_tuple(0))
        assert [e.time for e in ring.events] == [3.25, 7.5]

    def test_unbound_clock_stamps_zero(self):
        ring = RingBufferSink(8)
        tracer = Tracer(ring)
        tracer.emit_note_send("bsd", make_tuple(0))
        assert ring.events[0].time == 0.0


class TestAlgorithmIntegration:
    def test_full_lifecycle_is_traced(self):
        ring = RingBufferSink(64)
        algorithm = BSDDemux()
        algorithm.tracer = Tracer(ring)
        pcb, = make_pcbs(1)
        algorithm.insert(pcb)
        algorithm.lookup(pcb.four_tuple, PacketKind.DATA)
        algorithm.note_send(pcb)
        algorithm.lookup(make_tuple(99), PacketKind.ACK)
        algorithm.remove(pcb.four_tuple)
        kinds = [e.kind for e in ring.events]
        assert kinds == ["insert", "lookup", "note_send", "lookup", "remove"]

    def test_traced_examined_matches_stats(self):
        ring = RingBufferSink(1024)
        algorithm = SequentDemux(7)
        algorithm.tracer = Tracer(ring)
        for pcb in make_pcbs(30):
            algorithm.insert(pcb)
        for i in range(30):
            algorithm.lookup(make_tuple(i), PacketKind.DATA)
        lookups = [e for e in ring.events if e.kind == "lookup"]
        assert len(lookups) == algorithm.stats.lookups == 30
        assert (
            sum(e.examined for e in lookups)
            == algorithm.stats.examined_total
        )
        hits = sum(1 for e in lookups if e.cache_hit)
        assert hits == algorithm.stats.cache_hits

    def test_lookup_events_carry_packet_kind(self):
        ring = RingBufferSink(8)
        algorithm = BSDDemux()
        algorithm.tracer = Tracer(ring)
        algorithm.lookup(make_tuple(0), PacketKind.ACK)
        assert ring.events[0].packet_kind == "ack"
        assert ring.events[0].found is False

    def test_no_tracer_no_events_no_errors(self, any_algorithm):
        pcb, = make_pcbs(1)
        any_algorithm.insert(pcb)
        result = any_algorithm.lookup(pcb.four_tuple)
        assert result.found
        any_algorithm.remove(pcb.four_tuple)


class TestSimulatorProbe:
    def test_probe_sees_dispatch_order(self):
        sim = Simulator()
        seen = []
        sim.probe = lambda event: seen.append(event.time)
        ran = []
        sim.schedule(2.0, ran.append, "b")
        sim.schedule(1.0, ran.append, "a")
        sim.run()
        assert seen == [1.0, 2.0]
        assert ran == ["a", "b"]

    def test_probe_fires_after_clock_advance(self):
        sim = Simulator()
        observed = []
        sim.probe = lambda event: observed.append(sim.now)
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert observed == [3.5]

    def test_cancelled_events_not_probed(self):
        sim = Simulator()
        seen = []
        sim.probe = lambda event: seen.append(event.time)
        keep = sim.schedule(1.0, lambda: None)
        cancel = sim.schedule(2.0, lambda: None)
        sim.cancel(cancel)
        sim.run()
        assert seen == [keep.time]

    def test_attach_simulator_traces_dispatch(self):
        sim = Simulator()
        ring = RingBufferSink(16)
        tracer = Tracer(ring)
        tracer.attach_simulator(sim)

        def my_callback():
            pass

        sim.schedule(0.5, my_callback)
        sim.run()
        assert len(ring) == 1
        event = ring.events[0]
        assert event.kind == "sim.event"
        assert event.detail == "my_callback"
        assert event.time == 0.5
        # attach_simulator also bound the tracer clock to virtual time.
        assert tracer.now() == sim.now


class TestTracingDoesNotPerturb:
    """The acceptance criterion: instrumented and bare runs agree."""

    def _run(self, *, traced: bool):
        algorithm = SequentDemux(19)
        ring = None
        if traced:
            ring = RingBufferSink(200_000)
            algorithm.tracer = Tracer(ring)
        config = TPCAConfig(n_users=80, duration=40.0, seed=11)
        simulation = TPCADemuxSimulation(config, algorithm)
        result = simulation.run()
        return algorithm, result, ring

    def test_identical_stats_with_and_without_tracing(self):
        bare_alg, bare_result, _ = self._run(traced=False)
        traced_alg, traced_result, ring = self._run(traced=True)
        assert traced_result == bare_result  # same WorkloadResult snapshot
        for kind in PacketKind:
            assert (
                traced_alg.stats.kind(kind).histogram
                == bare_alg.stats.kind(kind).histogram
            )
        assert ring.total_emitted > 0

    def test_trace_timestamps_use_virtual_time(self):
        _, _, ring = self._run(traced=True)
        lookups = [e for e in ring.events if e.kind == "lookup"]
        assert lookups, "expected traced lookups"
        # Warm-up is 20 s; traced events exist beyond it, stamped in
        # virtual (not wall-clock) seconds.
        assert max(e.time for e in lookups) <= 60.0
        assert any(e.time > 20.0 for e in lookups)
