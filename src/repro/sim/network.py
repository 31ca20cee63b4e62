"""A simulated network: hosts joined by fixed-latency links.

The paper's model needs exactly one network property -- the round-trip
time ``D`` between clients and the server (it enters the Partridge/Pink
analysis, Eqs. 8-16) -- so the network is a star of point-to-point
links with a configurable one-way delay.  A fixed delay delivers every
link's packets in FIFO order, as on a real LAN segment.  Links lose
nothing (the paper assumes "negligible loss rates"); loss, reordering
and corruption come from the fault injector's
:class:`~repro.faults.injector.FaultyLink`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, Union

from ..packet.addresses import IPv4Address
from ..packet.builder import Packet
from .engine import Simulator

__all__ = ["Host", "Link", "Network"]


class Host(Protocol):
    """Anything that can be attached to the network."""

    @property
    def address(self) -> IPv4Address:
        """The host's IP address (one per host in this model)."""
        ...

    def deliver(self, packet: Packet) -> None:
        """Called by the network when a packet arrives."""
        ...


class Link:
    """A point-to-point link with a fixed one-way delay."""

    def __init__(self, sim: Simulator, delay: float):
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self._sim = sim
        self._delay = delay
        self.packets_sent = 0

    @property
    def delay(self) -> float:
        return self._delay

    def _schedule_delivery(
        self,
        packet,
        deliver: Callable[[Packet], None],
        extra_delay: float = 0.0,
    ) -> None:
        """Schedule one delivery after the link delay plus
        ``extra_delay`` (the fault injector's delay spikes, which the
        packets sent after a held one overtake)."""
        latency = self._delay + extra_delay
        self._sim.schedule_at(self._sim.now + latency, deliver, packet)

    def transmit(self, packet: Packet, deliver: Callable[[Packet], None]) -> None:
        """Schedule delivery of ``packet`` after the link delay."""
        self.packets_sent += 1
        self._schedule_delivery(packet, deliver)


class Network:
    """A set of hosts, each reachable via its own link.

    ``default_delay`` is the one-way latency used for hosts attached
    without an explicit link, i.e. D/2 for the paper's round-trip D.
    ``link_factory(sim, delay)``, when given, builds those default
    links instead -- the hook the fault injector uses to put a
    :class:`~repro.faults.injector.FaultyLink` in front of every host.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        default_delay: float = 0.0005,
        link_factory: Optional[Callable[[Simulator, float], Link]] = None,
    ):
        self._sim = sim
        self._default_delay = default_delay
        self._link_factory = link_factory
        self._hosts: Dict[IPv4Address, Host] = {}
        self._links: Dict[IPv4Address, Link] = {}
        self.packets_delivered = 0
        self.packets_to_nowhere = 0

    def attach(self, host: Host, link: Optional[Link] = None) -> None:
        """Add a host; duplicate addresses are an error."""
        addr = host.address
        if addr in self._hosts:
            raise ValueError(f"address {addr} already attached")
        self._hosts[addr] = host
        if link is None:
            if self._link_factory is not None:
                link = self._link_factory(self._sim, self._default_delay)
            else:
                link = Link(self._sim, self._default_delay)
        self._links[addr] = link

    def detach(self, address: Union[str, IPv4Address]) -> None:
        address = IPv4Address(address)
        self._hosts.pop(address)  # KeyError if absent, intentionally
        self._links.pop(address)

    def host(self, address: Union[str, IPv4Address]) -> Host:
        return self._hosts[IPv4Address(address)]

    def link_to(self, address: Union[str, IPv4Address]) -> Link:
        return self._links[IPv4Address(address)]

    def send(self, packet: Packet) -> None:
        """Route ``packet`` to the host owning its destination address.

        Packets to unattached addresses are counted and dropped (the
        LAN has no router to ICMP back through).
        """
        dst = packet.ip.dst
        host = self._hosts.get(dst)
        if host is None:
            self.packets_to_nowhere += 1
            return
        link = self._links[dst]

        def deliver(pkt: Packet) -> None:
            self.packets_delivered += 1
            host.deliver(pkt)

        link.transmit(packet, deliver)
