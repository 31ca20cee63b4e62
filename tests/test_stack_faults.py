"""Robustness tests: hardened deliver, drop taxonomy, bounded tables."""

import pytest

from repro.core.bsd import BSDDemux
from repro.core.sequent import SequentDemux
from repro.faults.audit import audit_stack
from repro.faults.injector import FaultInjector
from repro.faults.models import IIDLoss
from repro.obs.metrics import MetricsRegistry
from repro.packet.addresses import FourTuple
from repro.packet.builder import build_packet, make_data
from repro.packet.ip import IPProto, IPv4Header
from repro.packet.tcp import TCPFlags, TCPSegment
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.tcpstack.pcb_table import PCBTable, TableFullError
from repro.tcpstack.stack import DROP_REASONS, HostStack


def build(algorithm=None, **stack_kwargs):
    sim = Simulator()
    net = Network(sim, default_delay=0.0005)
    server = HostStack(
        sim, net, "10.0.0.1", algorithm or BSDDemux(), **stack_kwargs
    )
    return sim, net, server


def valid_frame(server, payload=b"q"):
    return build_packet(
        "10.0.1.1",
        server.address,
        TCPSegment(
            src_port=45000,
            dst_port=80,
            seq=1,
            ack=1,
            flags=TCPFlags.ACK | TCPFlags.PSH,
            payload=payload,
        ),
    )


class TestHardenedDeliver:
    """Satellite (b): bad bytes are counted drops, never exceptions."""

    def test_truncated_bytes_dropped_as_corrupt(self):
        sim, net, server = build()
        frame = valid_frame(server)
        for cut in (1, 10, 19, 21, len(frame) - 1):
            server.deliver(frame[:cut])
        assert server.drops["corrupt"] == 5
        assert server.packets_received == 5

    def test_bitflipped_checksum_dropped_as_corrupt(self):
        sim, net, server = build()
        frame = bytearray(valid_frame(server))
        frame[-1] ^= 0x01  # last payload byte: TCP checksum now wrong
        server.deliver(bytes(frame))
        assert server.drops["corrupt"] == 1

    def test_non_tcp_protocol_dropped_as_corrupt(self):
        sim, net, server = build()
        header = IPv4Header(
            src="10.0.1.1", dst=server.address, protocol=IPProto.UDP,
            payload_length=4,
        )
        server.deliver(header.build() + b"ping")
        assert server.drops["corrupt"] == 1

    def test_garbage_bytes_dropped_as_corrupt(self):
        sim, net, server = build()
        server.deliver(b"\x00" * 40)
        server.deliver(b"\xff" * 7)
        assert server.drops["corrupt"] == 2

    def test_valid_bytes_still_parse_and_demux(self):
        sim, net, server = build()
        server.deliver(valid_frame(server))
        assert server.drops["corrupt"] == 0
        # Parsed fine; no matching PCB, so it took the stray-segment path.
        assert server.drops["bad-state"] == 1
        assert server.demux.stats.lookups == 1

    def test_unknown_drop_reason_rejected(self):
        sim, net, server = build()
        with pytest.raises(ValueError):
            server.drop("meteor-strike")

    def test_taxonomy_is_complete(self):
        sim, net, server = build()
        assert set(server.drops) == set(DROP_REASONS)


class TestBoundedTable:
    def test_insert_raises_when_full(self):
        from repro.core.pcb import PCB

        table = PCBTable(BSDDemux(), max_connections=2)
        for i in range(2):
            table.insert(PCB(FourTuple.create("10.0.0.1", 80, "10.0.1.1",
                                              45000 + i)))
        with pytest.raises(TableFullError):
            table.insert(PCB(FourTuple.create("10.0.0.1", 80, "10.0.1.1",
                                              45999)))
        assert table.overflow_rejections == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            PCBTable(BSDDemux(), overflow_policy="panic")
        with pytest.raises(ValueError):
            PCBTable(BSDDemux(), max_connections=0)

    def test_reject_new_sheds_syn_silently(self):
        sim, net, server = build(max_connections=1)
        server.listen(80)
        client_a = HostStack(sim, net, "10.0.1.1", BSDDemux())
        client_b = HostStack(sim, net, "10.0.1.2", BSDDemux())
        client_a.connect("10.0.0.1", 80)
        sim.run(until=1.0)
        resets_before = server.resets_sent
        client_b.connect("10.0.0.1", 80)
        sim.run(until=2.0)
        assert server.drops["table-full"] >= 1
        # Shed silently: no RST for the refused SYN (flood economics).
        assert server.resets_sent == resets_before
        assert len(server.table) == 1

    def test_evict_oldest_embryonic_admits_new(self):
        sim, net, server = build(
            algorithm=SequentDemux(5),
            max_connections=1,
            overflow_policy="evict-oldest-embryonic",
        )
        server.listen(80)
        # A half-open connection parks in SYN_RCVD: spoofed SYN whose
        # source never answers the SYN-ACK.
        net.send(
            make_data(
                FourTuple.create("10.0.0.1", 80, "172.16.0.9", 50000),
                b"",
                seq=100,
            ).__class__(
                ip=IPv4Header(src="172.16.0.9", dst="10.0.0.1"),
                tcp=TCPSegment(src_port=50000, dst_port=80, seq=100,
                               flags=TCPFlags.SYN),
            )
        )
        sim.run(until=0.1)
        assert len(server.table) == 1
        client = HostStack(sim, net, "10.0.1.1", BSDDemux())
        established = []
        client.connect("10.0.0.1", 80, on_establish=established.append)
        sim.run(until=1.0)
        assert server.table.embryonic_evictions == 1
        assert established  # the legitimate client got the slot
        assert audit_stack(server).ok

    def test_established_connections_never_evicted(self):
        sim, net, server = build(
            max_connections=1, overflow_policy="evict-oldest-embryonic"
        )
        server.listen(80)
        client_a = HostStack(sim, net, "10.0.1.1", BSDDemux())
        client_a.connect("10.0.0.1", 80)
        sim.run(until=1.0)  # fully established: not embryonic
        client_b = HostStack(sim, net, "10.0.1.2", BSDDemux())
        client_b.connect("10.0.0.1", 80)
        sim.run(until=2.0)
        assert server.table.embryonic_evictions == 0
        assert server.drops["table-full"] >= 1
        assert len(server.table) == 1


class TestSequentOverload:
    def test_overload_events_counted(self):
        from repro.core.pcb import PCB

        demux = SequentDemux(1, overload_threshold=2)
        for i in range(4):
            demux.insert(
                PCB(FourTuple.create("10.0.0.1", 80, "10.0.1.1", 45000 + i))
            )
        # Inserts 3 and 4 left the single chain above threshold 2.
        assert demux.chain_overload_events == 2
        assert demux.overloaded_chains() == (0,)

    def test_disabled_by_default(self):
        from repro.core.pcb import PCB

        demux = SequentDemux(1)
        for i in range(10):
            demux.insert(
                PCB(FourTuple.create("10.0.0.1", 80, "10.0.1.1", 45000 + i))
            )
        assert demux.chain_overload_events == 0
        assert demux.overloaded_chains() == ()

    def test_registry_spec(self):
        from repro.core.registry import make_algorithm

        demux = make_algorithm("sequent:h=7,overload=3")
        assert demux.nchains == 7
        assert demux.overload_threshold == 3

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SequentDemux(5, overload_threshold=0)


class TestAudit:
    def test_clean_stack_passes(self):
        sim, net, server = build()
        audit = audit_stack(server)
        assert audit.ok
        assert "OK" in audit.describe()

    def test_expect_empty_flags_survivors(self):
        sim, net, server = build()
        server.listen(80)
        client = HostStack(sim, net, "10.0.1.1", BSDDemux())
        client.connect("10.0.0.1", 80)
        sim.run(until=1.0)
        assert audit_stack(server).ok
        assert not audit_stack(server, expect_empty=True).ok

    def test_detects_duplicate_tuples(self):
        sim, net, server = build()
        from repro.core.pcb import PCB

        pcb = PCB(FourTuple.create("10.0.0.1", 80, "10.0.1.1", 45000))
        server.table.insert(pcb)
        # Corrupt the structure behind the table's back.
        server.table.algorithm._pcbs.append(pcb)
        audit = audit_stack(server)
        assert not audit.ok
        assert any("duplicate" in v for v in audit.violations)

    def test_detects_closed_endpoint_leak(self):
        sim, net, server = build()
        server.listen(80)
        client = HostStack(sim, net, "10.0.1.1", BSDDemux())
        endpoint = client.connect("10.0.0.1", 80)
        sim.run(until=1.0)
        # Force the endpoint CLOSED without the teardown that would
        # normally reap its PCB -- exactly the leak the audit hunts.
        from repro.tcpstack.states import TCPState

        endpoint._state = TCPState.CLOSED
        audit = audit_stack(client)
        assert not audit.ok
        assert any("leaked" in v for v in audit.violations)


class TestFaultMetricsExport:
    def test_stack_exporter_publishes_taxonomy(self):
        sim, net, server = build()
        server.deliver(b"\x00" * 30)
        registry = MetricsRegistry()
        registry.publish(server)
        drops = registry.counter("packet_drops_total")
        assert drops.value(host="10.0.0.1", reason="corrupt") == 1
        assert drops.value(host="10.0.0.1", reason="table-full") == 0
        received = registry.counter("packets_received_total")
        assert received.value(host="10.0.0.1") == 1
        # Delta publishing: a second publish adds nothing new.
        registry.publish(server)
        assert drops.value(host="10.0.0.1", reason="corrupt") == 1

    def test_injector_exporter_publishes_injected_loss(self):
        sim = Simulator()
        injector = FaultInjector(sim, [IIDLoss(1.0)], seed=1)
        tup = FourTuple.create("10.0.0.1", 80, "10.0.1.1", 45000)
        for n in range(3):
            injector.judge(make_data(tup, b"x", seq=n))
        registry = MetricsRegistry()
        registry.publish(injector, host="10.0.0.1")
        drops = registry.counter("packet_drops_total")
        faults = registry.counter("faults_injected_total")
        assert drops.value(host="10.0.0.1", reason="injected-loss") == 3
        assert faults.value(host="10.0.0.1", fault="loss", action="drop") == 3
        registry.publish(injector, host="10.0.0.1")
        assert drops.value(host="10.0.0.1", reason="injected-loss") == 3

    def test_prometheus_rendering_includes_labels(self):
        sim, net, server = build()
        server.deliver(b"\xff" * 25)
        registry = MetricsRegistry()
        registry.publish(server)
        text = registry.to_prometheus()
        assert 'packet_drops_total{host="10.0.0.1",reason="corrupt"} 1' in text
