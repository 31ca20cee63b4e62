"""Tests for the simulated network (links, delays, routing)."""

import pytest

from repro.packet.addresses import FourTuple, IPv4Address
from repro.packet.builder import make_data
from repro.sim.engine import Simulator
from repro.sim.network import Link, Network


class Sink:
    """A minimal Host: records deliveries with timestamps."""

    def __init__(self, sim, address):
        self._sim = sim
        self._address = IPv4Address(address)
        self.received = []

    @property
    def address(self):
        return self._address

    def deliver(self, packet):
        self.received.append((self._sim.now, packet))


def packet_to(address, payload=b"x"):
    tup = FourTuple.create(address, 80, "10.9.9.9", 4000)
    return make_data(tup, payload)


class TestLink:
    def test_fixed_delay(self):
        sim = Simulator()
        link = Link(sim, delay=0.25)
        arrivals = []
        link.transmit(object(), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [0.25]

    @pytest.mark.parametrize("kwargs", [dict(delay=-0.1)])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Link(Simulator(), **kwargs)


class TestNetwork:
    def test_delivery_to_attached_host(self):
        sim = Simulator()
        net = Network(sim, default_delay=0.001)
        sink = Sink(sim, "10.0.0.1")
        net.attach(sink)
        net.send(packet_to("10.0.0.1"))
        sim.run()
        assert len(sink.received) == 1
        assert sink.received[0][0] == pytest.approx(0.001)
        assert net.packets_delivered == 1

    def test_routing_by_destination(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Sink(sim, "10.0.0.1"), Sink(sim, "10.0.0.2")
        net.attach(a)
        net.attach(b)
        net.send(packet_to("10.0.0.2"))
        sim.run()
        assert not a.received and len(b.received) == 1

    def test_packet_to_nowhere_counted(self):
        sim = Simulator()
        net = Network(sim)
        net.send(packet_to("10.0.0.50"))
        sim.run()
        assert net.packets_to_nowhere == 1

    def test_duplicate_address_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.attach(Sink(sim, "10.0.0.1"))
        with pytest.raises(ValueError, match="already"):
            net.attach(Sink(sim, "10.0.0.1"))

    def test_detach(self):
        sim = Simulator()
        net = Network(sim)
        net.attach(Sink(sim, "10.0.0.1"))
        net.detach("10.0.0.1")
        net.send(packet_to("10.0.0.1"))
        sim.run()
        assert net.packets_to_nowhere == 1
        with pytest.raises(KeyError):
            net.detach("10.0.0.1")

    def test_custom_link_per_host(self):
        sim = Simulator()
        net = Network(sim, default_delay=0.001)
        slow = Sink(sim, "10.0.0.3")
        net.attach(slow, Link(sim, delay=1.0))
        net.send(packet_to("10.0.0.3"))
        sim.run()
        assert slow.received[0][0] == pytest.approx(1.0)

    def test_host_and_link_accessors(self):
        sim = Simulator()
        net = Network(sim, default_delay=0.002)
        sink = Sink(sim, "10.0.0.1")
        net.attach(sink)
        assert net.host("10.0.0.1") is sink
        assert net.link_to("10.0.0.1").delay == 0.002
