"""Adversarial workloads: traffic designed to hurt the demux path.

The TPC/A workload is friendly -- long-lived connections, well-formed
segments, Poisson arrivals.  These generators are not:

* :class:`SynFloodWorkload` sprays spoofed SYNs (sources that will
  never answer the SYN-ACK) at a full-stack server, filling a bounded
  PCB table with half-open connections while legitimate clients try to
  get work done -- the classic resource-exhaustion attack the
  ``table-full`` drop reason and the eviction policy exist for.
* :class:`ChurnStormWorkload` mutates a demux structure as fast as the
  paper's model allows -- insert, look up, remove, repeat -- checking
  that caches and chains survive high connection turnover without
  statistical drift.
* :class:`MalformedStreamWorkload` feeds a host's ``deliver`` raw
  garbage: random bytes, truncated packets, bit-flipped valid frames,
  and non-TCP protocols.  The contract is simple: everything is either
  parsed or counted as a ``corrupt`` drop, and nothing ever raises.

All three are seeded through :class:`~repro.sim.rng.RngRegistry`
streams, so an attack replays exactly.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.base import DemuxAlgorithm
from ..core.pcb import PCB
from ..core.stats import PacketKind
from ..packet.addresses import FourTuple, IPv4Address
from ..packet.builder import Packet, build_packet
from ..packet.ip import IPProto, IPv4Header
from ..packet.tcp import TCPFlags, TCPSegment
from ..sim.engine import Simulator
from ..sim.network import Network
from ..sim.rng import RngRegistry
from ..tcpstack.stack import HostStack
from .base import bind_tracer_clock
from .tpca import SERVER_ADDRESS, SERVER_PORT

__all__ = [
    "ChurnStormResult",
    "ChurnStormWorkload",
    "MalformedStreamResult",
    "MalformedStreamWorkload",
    "SynFloodResult",
    "SynFloodWorkload",
    "churn_tuple",
    "churn_walk",
]


# ---------------------------------------------------------------------------
# SYN flood


@dataclasses.dataclass
class SynFloodResult:
    """What the flood did and what the server did about it."""

    syns_sent: int
    table_full_drops: int
    embryonic_evictions: int
    resets_sent: int
    pcbs_remaining: int
    legit_connected: int
    legit_attempted: int

    def summary(self) -> str:
        return (
            f"syn-flood: {self.syns_sent} SYNs,"
            f" {self.table_full_drops} shed (table full),"
            f" {self.embryonic_evictions} evictions,"
            f" legit {self.legit_connected}/{self.legit_attempted}"
        )


class SynFloodWorkload:
    """Spoofed-SYN flood against a (usually bounded) full-stack server.

    Spoofed sources are never attached to the network, so the server's
    SYN-ACKs go to nowhere and each admitted SYN parks a half-open
    (SYN_RCVD) PCB in the table until its handshake retransmissions
    exhaust -- exactly how the real attack starves real listeners.
    ``legit_clients`` genuine clients connect mid-flood to measure the
    collateral damage under each overflow policy.
    """

    def __init__(
        self,
        *,
        algorithm: DemuxAlgorithm,
        syn_rate: float = 200.0,
        duration: float = 10.0,
        legit_clients: int = 5,
        max_connections: Optional[int] = 64,
        overflow_policy: str = "reject-new",
        idle_timeout: Optional[float] = None,
        time_wait_timeout: Optional[float] = None,
        seed: int = 1,
    ):
        if syn_rate <= 0:
            raise ValueError(f"syn_rate must be positive, got {syn_rate}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        self.sim = Simulator()
        bind_tracer_clock(algorithm, self.sim)
        self.network = Network(self.sim)
        self._rngs = RngRegistry(seed)
        self._attack_rng = self._rngs.stream("synflood.attack")
        self.server = HostStack(
            self.sim,
            self.network,
            IPv4Address("10.0.0.1"),
            algorithm,
            max_connections=max_connections,
            overflow_policy=overflow_policy,
            idle_timeout=idle_timeout,
            time_wait_timeout=time_wait_timeout,
        )
        self.port = 80
        self.syn_rate = syn_rate
        self.duration = duration
        self.legit_clients = legit_clients
        self.syns_sent = 0
        self.legit_connected = 0
        self._iss = 0

    def _spoofed_syn(self) -> Packet:
        rng = self._attack_rng
        src = IPv4Address("172.16.0.0") + rng.randrange(1, 1 << 20)
        self._iss = (self._iss + 12345) & 0xFFFFFFFF
        segment = TCPSegment(
            src_port=rng.randrange(1024, 65536),
            dst_port=self.port,
            seq=self._iss,
            flags=TCPFlags.SYN,
        )
        return Packet(
            ip=IPv4Header(src=src, dst=self.server.address), tcp=segment
        )

    def _fire(self) -> None:
        if self.sim.now >= self.duration:
            return
        self.syns_sent += 1
        self.network.send(self._spoofed_syn())
        self.sim.schedule(
            self._attack_rng.expovariate(self.syn_rate), self._fire
        )

    def _connect_legit(self, index: int) -> None:
        client = HostStack(
            self.sim,
            self.network,
            IPv4Address("10.0.1.0") + (index + 1),
            _fresh_bsd(),
        )

        def on_establish(endpoint) -> None:
            self.legit_connected += 1

        client.connect(self.server.address, self.port,
                       on_establish=on_establish)

    def run(self, *, settle: float = 30.0) -> SynFloodResult:
        """Flood, let retransmission timeouts drain, and report."""
        self.server.listen(self.port)
        self.sim.schedule(0.0, self._fire)
        # Legitimate clients arrive spread across the flood window.
        for index in range(self.legit_clients):
            when = (index + 1) * self.duration / (self.legit_clients + 1)
            self.sim.schedule(when, self._connect_legit, index)
        self.sim.run(until=self.duration + settle)
        return SynFloodResult(
            syns_sent=self.syns_sent,
            table_full_drops=self.server.drops["table-full"],
            embryonic_evictions=self.server.table.embryonic_evictions,
            resets_sent=self.server.resets_sent,
            pcbs_remaining=len(self.server.table),
            legit_connected=self.legit_connected,
            legit_attempted=self.legit_clients,
        )


def _fresh_bsd() -> DemuxAlgorithm:
    from ..core.bsd import BSDDemux

    return BSDDemux()


# ---------------------------------------------------------------------------
# Connection churn storm

#: Churn remotes: one address per slot of 10.2/16, slots 1..65,534.
_CHURN_REMOTE_BASE = IPv4Address("10.2.0.0")
_CHURN_REMOTE_SLOTS = 65534

#: Each slot's remote address, made on first use and shared by every
#: tuple of that slot.  Bounded by the slot count, never by the ids.
_churn_remotes: Dict[int, IPv4Address] = {}


def churn_tuple(index: int) -> FourTuple:
    """The four-tuple for churn connection id ``index`` (stable).

    Connections of the TPC/A server, one remote address per id modulo
    65,534 and one port per id modulo 20,000.  Every call makes a new
    tuple, but tuples of one id share their address objects, so
    comparing two of them runs no Python code.
    """
    slot = index % _CHURN_REMOTE_SLOTS + 1
    remote = _churn_remotes.get(slot)
    if remote is None:
        remote = _churn_remotes[slot] = _CHURN_REMOTE_BASE + slot
    return FourTuple(SERVER_ADDRESS, SERVER_PORT, remote, 40000 + index % 20000)


#: One churn operation: ``("insert", id)``, ``("remove", id)`` or
#: ``("lookup", id, "data"|"ack")`` -- connection ids are stable ints
#: that :func:`churn_tuple` maps to four-tuples, so a walk is a plain
#: JSON-able value any structure can replay.
ChurnOp = Tuple


def churn_walk(
    rng: random.Random, steps: int, grow_bias: float = 0.5
) -> Iterator[ChurnOp]:
    """The churn walk: ``steps`` biased coin flips drawn from ``rng``.

    Each step inserts a fresh connection (probability ``grow_bias /
    2``, and always while none is live), removes a random live one
    (``grow_bias / 2``), or looks one up -- half the lookups target a
    live connection, half a fresh never-inserted id, a guaranteed
    miss.  Valid by construction: every remove names a live
    connection.
    """
    live: List[int] = []
    next_id = 0
    for _ in range(steps):
        action = rng.random()
        if action < grow_bias * 0.5 or not live:
            live.append(next_id)
            yield ("insert", next_id)
            next_id += 1
        elif action < grow_bias:
            victim = rng.randrange(len(live))
            live[victim], live[-1] = live[-1], live[victim]
            yield ("remove", live.pop())
        else:
            if rng.random() < 0.5:
                target = live[rng.randrange(len(live))]
            else:
                target = next_id  # never inserted: a guaranteed miss
                next_id += 1
            yield ("lookup", target, "data" if rng.random() < 0.5 else "ack")


@dataclasses.dataclass
class ChurnStormResult:
    """Mutation-storm outcome: operation counts and a final census."""

    inserts: int
    removes: int
    lookups: int
    lookups_found: int
    pcbs_remaining: int
    mean_examined: float

    def summary(self) -> str:
        return (
            f"churn-storm: {self.inserts} inserts, {self.removes} removes,"
            f" {self.lookups} lookups ({self.lookups_found} found),"
            f" {self.pcbs_remaining} PCBs left,"
            f" mean examined {self.mean_examined:.2f}"
        )


class ChurnStormWorkload:
    """Demux-level mutation storm: rapid insert/lookup/remove turnover.

    Each step flips a biased coin: grow (insert a fresh connection),
    shrink (remove a random live one), or look up -- half the lookups
    target live connections, half misses.  The storm leaves the
    structure with whatever population the walk produced; the caller
    checks the structure's own census (``__len__`` vs iteration) and
    the stats conventions afterwards.
    """

    def __init__(
        self,
        algorithm: DemuxAlgorithm,
        *,
        steps: int = 10000,
        grow_bias: float = 0.5,
        seed: int = 1,
    ):
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if not 0.0 <= grow_bias <= 1.0:
            raise ValueError(f"grow_bias must be in [0, 1], got {grow_bias}")
        self.algorithm = algorithm
        self.steps = steps
        self.grow_bias = grow_bias
        self._rng = RngRegistry(seed).stream("churnstorm")

    def run(self) -> ChurnStormResult:
        algorithm = self.algorithm
        inserts = removes = lookups = found = 0
        for op in churn_walk(self._rng, self.steps, self.grow_bias):
            tup = churn_tuple(op[1])
            if op[0] == "insert":
                algorithm.insert(PCB(tup))
                inserts += 1
            elif op[0] == "remove":
                algorithm.remove(tup)
                removes += 1
            else:
                kind = PacketKind.DATA if op[2] == "data" else PacketKind.ACK
                lookups += 1
                if algorithm.lookup(tup, kind).found:
                    found += 1
        stats = algorithm.stats.combined()
        return ChurnStormResult(
            inserts=inserts,
            removes=removes,
            lookups=lookups,
            lookups_found=found,
            pcbs_remaining=len(algorithm),
            mean_examined=stats.mean_examined,
        )


# ---------------------------------------------------------------------------
# Malformed segment stream


@dataclasses.dataclass
class MalformedStreamResult:
    """Per-category delivery counts and the server's verdicts."""

    delivered: int
    by_category: Dict[str, int]
    corrupt_drops: int
    parsed_ok: int

    def summary(self) -> str:
        cats = ", ".join(f"{k}={v}" for k, v in sorted(self.by_category.items()))
        return (
            f"malformed-stream: {self.delivered} frames ({cats}),"
            f" {self.corrupt_drops} corrupt drops, {self.parsed_ok} parsed"
        )


class MalformedStreamWorkload:
    """Feeds a host's inbound path byte streams that must not hurt it.

    Four categories, chosen per frame:

    * ``garbage`` -- uniformly random bytes of random length;
    * ``truncated`` -- a valid frame cut short mid-header or mid-payload;
    * ``bitflip`` -- a valid frame with 1-4 random bits flipped;
    * ``non-tcp`` -- a well-formed IPv4 header carrying UDP/ICMP.

    The contract under test: every frame is either parsed (flips can,
    rarely, cancel in the ones-complement checksum) or counted as a
    ``corrupt`` drop -- and ``deliver`` never raises.
    """

    CATEGORIES = ("garbage", "truncated", "bitflip", "non-tcp")

    def __init__(
        self,
        server: HostStack,
        *,
        frames: int = 200,
        interval: float = 0.001,
        seed: int = 1,
    ):
        if frames < 1:
            raise ValueError(f"frames must be >= 1, got {frames}")
        self.server = server
        self.sim = server.sim
        self.frames = frames
        self.interval = interval
        self._rng = RngRegistry(seed).stream("malformed")
        self.sent_by_category: Dict[str, int] = {c: 0 for c in self.CATEGORIES}

    def _valid_frame(self) -> bytes:
        """A parseable data segment aimed at the server."""
        rng = self._rng
        return build_packet(
            IPv4Address("10.3.0.0") + rng.randrange(1, 1000),
            self.server.address,
            TCPSegment(
                src_port=rng.randrange(1024, 65536),
                dst_port=1521,
                seq=rng.randrange(1 << 32),
                ack=rng.randrange(1 << 32),
                flags=TCPFlags.ACK | TCPFlags.PSH,
                payload=bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 64))),
            ),
        )

    def _make_frame(self) -> bytes:
        rng = self._rng
        category = self.CATEGORIES[rng.randrange(len(self.CATEGORIES))]
        self.sent_by_category[category] += 1
        if category == "garbage":
            length = rng.randrange(1, 120)
            return bytes(rng.getrandbits(8) for _ in range(length))
        if category == "truncated":
            frame = self._valid_frame()
            return frame[: rng.randrange(1, len(frame))]
        if category == "bitflip":
            data = bytearray(self._valid_frame())
            for _ in range(rng.randrange(1, 5)):
                position = rng.randrange(len(data) * 8)
                data[position // 8] ^= 1 << (position % 8)
            return bytes(data)
        # non-tcp: honest IPv4, wrong protocol.
        protocol = IPProto.UDP if rng.random() < 0.5 else IPProto.ICMP
        payload = bytes(rng.getrandbits(8) for _ in range(16))
        header = IPv4Header(
            src=IPv4Address("10.3.0.0") + rng.randrange(1, 1000),
            dst=self.server.address,
            protocol=protocol,
            payload_length=len(payload),
        )
        return header.build() + payload

    def run(self) -> MalformedStreamResult:
        drops_before = self.server.drops["corrupt"]
        received_before = self.server.packets_received
        for index in range(self.frames):
            self.sim.schedule(
                index * self.interval, self.server.deliver, self._make_frame()
            )
        self.sim.run(until=(self.frames + 1) * self.interval)
        delivered = self.server.packets_received - received_before
        corrupt = self.server.drops["corrupt"] - drops_before
        return MalformedStreamResult(
            delivered=delivered,
            by_category=dict(self.sent_by_category),
            corrupt_drops=corrupt,
            parsed_ok=delivered - corrupt,
        )
