"""Direct unit tests for :mod:`repro.workload.record`.

The recorded-stream machinery underpins every paired comparison in the
repository (SMP sweeps, coalescing, the golden conformance suite, the
canary), so its contract -- determinism, faithful arrival order,
zero-cost lookups -- gets pinned here directly rather than only through
its consumers.
"""

from __future__ import annotations

import pytest

from repro.core.base import DuplicateConnectionError
from repro.core.pcb import PCB
from repro.core.stats import PacketKind
from repro.workload.record import PacketRecorder, record_tpca_stream

from conftest import make_tuple


class TestPacketRecorder:
    def test_records_arrival_order_and_kinds(self):
        recorder = PacketRecorder()
        recorder.insert(PCB(make_tuple(0)))
        recorder.lookup(make_tuple(0), PacketKind.DATA)
        recorder.lookup(make_tuple(1), PacketKind.ACK)  # absent: still recorded
        assert recorder.packets == [
            (make_tuple(0), PacketKind.DATA),
            (make_tuple(1), PacketKind.ACK),
        ]

    def test_lookup_reports_zero_examined(self):
        recorder = PacketRecorder()
        pcb = PCB(make_tuple(0))
        recorder.insert(pcb)
        result = recorder.lookup(make_tuple(0))
        assert result.pcb is pcb
        assert result.examined == 0
        assert not result.cache_hit
        assert recorder.lookup(make_tuple(9)).pcb is None

    def test_duplicate_insert_raises(self):
        recorder = PacketRecorder()
        recorder.insert(PCB(make_tuple(0)))
        with pytest.raises(DuplicateConnectionError):
            recorder.insert(PCB(make_tuple(0)))

    def test_remove_returns_pcb_and_raises_when_absent(self):
        recorder = PacketRecorder()
        pcb = PCB(make_tuple(0))
        recorder.insert(pcb)
        assert recorder.remove(make_tuple(0)) is pcb
        assert len(recorder) == 0
        with pytest.raises(KeyError):
            recorder.remove(make_tuple(0))

    def test_container_protocol(self):
        recorder = PacketRecorder()
        pcbs = [PCB(make_tuple(i)) for i in range(3)]
        for pcb in pcbs:
            recorder.insert(pcb)
        assert len(recorder) == 3
        assert list(recorder) == pcbs
        assert make_tuple(1) in recorder


class TestRecordTpcaStream:
    def test_deterministic_across_calls(self):
        first = record_tpca_stream(20, 10.0, 42)
        second = record_tpca_stream(20, 10.0, 42)
        assert first == second  # frozen dataclass: full value equality

    def test_seed_changes_the_stream(self):
        assert (
            record_tpca_stream(20, 10.0, 1).packets
            != record_tpca_stream(20, 10.0, 2).packets
        )

    def test_tuples_cover_every_user(self):
        stream = record_tpca_stream(15, 5.0, 7)
        assert len(stream.tuples) == stream.n_users == 15
        assert len(set(stream.tuples)) == 15
        installed = set(stream.tuples)
        assert all(tup in installed for tup, _ in stream.packets)

    def test_len_is_packet_count(self):
        stream = record_tpca_stream(10, 5.0, 7)
        assert len(stream) == len(stream.packets) > 0

    def test_max_packets_truncates(self):
        full = record_tpca_stream(20, 10.0, 42)
        cut = record_tpca_stream(20, 10.0, 42, max_packets=5)
        assert len(cut) == 5
        assert cut.packets == full.packets[:5]

    def test_packets_per_exchange_scales_traffic(self):
        single = record_tpca_stream(20, 10.0, 42)
        double = record_tpca_stream(20, 10.0, 42, packets_per_exchange=2)
        assert len(double) > len(single)
