"""Discrete-event simulation substrate.

A deterministic event heap (:class:`Simulator`), named RNG streams for
common-random-number experiment design (:class:`RngRegistry`), and a
star network of fixed-latency links (:class:`Network`).  Tracing lives
in :mod:`repro.obs`.
"""

from .engine import Event, SimulationError, Simulator
from .network import Host, Link, Network
from .pcap import PcapReader, PcapWriter, network_tap
from .rng import RngRegistry, derive_seed

__all__ = [
    "Event",
    "Host",
    "Link",
    "Network",
    "PcapReader",
    "PcapWriter",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "derive_seed",
    "network_tap",
]
