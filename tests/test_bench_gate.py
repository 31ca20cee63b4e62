"""Tests for the canary's replay timing (repro.fastpath.gate).

``measure_replay`` times best-of-R replays of one recorded stream; the
canary's throughput axis is two of them.  These pin what it counts and
what its ``perf_counter`` window covers, on streams small enough to be
fast and hermetic.
"""

from __future__ import annotations

from repro.fastpath.gate import measure_replay
from repro.workload.record import record_tpca_stream


def test_measure_replay_counts_every_packet():
    stream = record_tpca_stream(30, 5.0, 7)
    measurement = measure_replay("fast-sequent:h=7", stream, repeats=1, chunk=16)
    assert measurement.packets == len(stream.packets)
    assert measurement.packets_per_sec > 0
    assert measurement.best_seconds > 0
    assert measurement.n_users == 30


class TestTimedWindow:
    """The perf_counter window must measure replay only.

    A canary compares two such windows; if structure population or the
    conformance check leaks into one of them, the throughput axis
    compares set-up costs instead of lookups.
    """

    @staticmethod
    def _instrument(monkeypatch, events):
        import time as real_time

        from repro.fastpath import gate

        real_perf = real_time.perf_counter

        class _Clock:
            @staticmethod
            def perf_counter():
                events.append("clock")
                return real_perf()

        monkeypatch.setattr(gate, "time", _Clock)

        real_make = gate.make_algorithm

        def recording_make(spec):
            events.append("build")
            algorithm = real_make(spec)
            real_insert = algorithm.insert
            real_batch = algorithm.lookup_batch

            def recording_insert(pcb):
                events.append("insert")
                return real_insert(pcb)

            def recording_batch(packets):
                events.append("batch")
                return real_batch(packets)

            algorithm.insert = recording_insert
            algorithm.lookup_batch = recording_batch
            return algorithm

        monkeypatch.setattr(gate, "make_algorithm", recording_make)
        return gate

    def test_window_excludes_structure_build(self, monkeypatch):
        events = []
        gate = self._instrument(monkeypatch, events)
        stream = record_tpca_stream(30, 5.0, 7)
        gate.measure_replay("fast-sequent:h=7", stream, repeats=2, chunk=16)
        # Exactly two perf_counter reads per repeat: the window opens
        # after the structure is built and populated and closes right
        # after the replay's last batch.
        chunks = -(-len(stream.packets) // 16)
        repeat = (
            ["build"] + ["insert"] * len(stream.tuples)
            + ["clock"] + ["batch"] * chunks + ["clock"]
        )
        assert events == repeat * 2

    def test_canary_conformance_outside_window(self, monkeypatch):
        from repro.core.base import LookupResult
        from repro.fastpath.gate import CanaryConfig, run_canary

        events = []
        gate = self._instrument(monkeypatch, events)

        def recording_found(result):
            events.append("found")
            return result.pcb is not None

        monkeypatch.setattr(LookupResult, "found", property(recording_found))
        stream = record_tpca_stream(30, 5.0, 7)
        repeats = 2
        report = run_canary(
            stream,
            CanaryConfig(
                candidate="fast-sequent:h=7",
                incumbent="sequent:h=7",
                repeats=repeats,
                chunk=16,
            ),
        )
        assert report.decisions_match
        # Each side's decision flags come from its last timed repeat:
        # no structure is built beyond the timed ones.
        assert events.count("build") == 2 * repeats
        assert events.count("found") == 2 * len(stream.packets)
        last_clock = max(i for i, e in enumerate(events) if e == "clock")
        first_found = min(i for i, e in enumerate(events) if e == "found")
        assert last_clock < first_found, (
            "conformance check ran inside a timed window"
        )
