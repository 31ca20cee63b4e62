"""Mixed OLTP + bulk-transfer traffic.

The paper's pitch for the Sequent algorithm is not just the TPC/A win:
it "still maintain[s] good performance for packet-train traffic"
(abstract) -- the regime where BSD's one-entry cache shines.  This
workload interleaves both: N_oltp low-rate OLTP connections (TPC/A
arrival pattern) sharing the server with a few bulk connections whose
trains burst between transactions.  A structure wins here only if it
handles *both* the no-locality and the high-locality extremes.
"""

from __future__ import annotations

import dataclasses

from ..core.base import DemuxAlgorithm
from ..core.pcb import PCB
from ..core.stats import PacketKind
from ..packet.addresses import FourTuple, IPv4Address
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from .base import WorkloadResult, bind_tracer_clock

__all__ = ["MixedConfig", "MixedWorkload"]


@dataclasses.dataclass(frozen=True)
class MixedConfig:
    """Parameters of a mixed OLTP/bulk run."""

    n_oltp_users: int = 400
    n_bulk_connections: int = 4
    mean_think: float = 10.0
    response_time: float = 0.2
    round_trip: float = 0.001
    #: Bulk segments per second per bulk connection.
    bulk_rate: float = 500.0
    #: Segments per train burst.
    train_length: int = 32
    duration: float = 60.0
    warmup: float = 10.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_oltp_users < 1:
            raise ValueError("need at least one OLTP user")
        if self.n_bulk_connections < 0:
            raise ValueError("bulk connection count must be non-negative")
        if self.mean_think <= 0 or self.duration <= 0:
            raise ValueError("mean think and duration must be positive")
        if self.bulk_rate <= 0 or self.train_length < 1:
            raise ValueError("bulk rate must be positive, train length >= 1")
        if self.warmup < 0 or self.response_time < 0 or self.round_trip < 0:
            raise ValueError("times must be non-negative")


class MixedWorkload:
    """OLTP users and bulk trains sharing one demux structure."""

    def __init__(self, config: MixedConfig, algorithm: DemuxAlgorithm):
        self.config = config
        self.algorithm = algorithm
        self.sim = Simulator()
        bind_tracer_clock(algorithm, self.sim)
        rngs = RngRegistry(config.seed)
        self._think_rng = rngs.stream("mixed.think")
        self._bulk_rng = rngs.stream("mixed.bulk")
        self._oltp_pcbs = []
        self._bulk_tuples = []
        self.oltp_transactions = 0
        self.bulk_segments = 0

    def _populate(self) -> None:
        cfg = self.config
        server = IPv4Address("10.0.0.1")
        for index in range(cfg.n_oltp_users):
            tup = FourTuple(
                server, 1521, IPv4Address("10.4.0.1") + index, 41000 + index
            )
            pcb = PCB(tup)
            self.algorithm.insert(pcb)
            self._oltp_pcbs.append(pcb)
        for index in range(cfg.n_bulk_connections):
            tup = FourTuple(
                server, 20, IPv4Address("10.5.0.1") + index, 42000 + index
            )
            self.algorithm.insert(PCB(tup))
            self._bulk_tuples.append(tup)

    def _start(self) -> None:
        cfg = self.config
        for index in range(cfg.n_oltp_users):
            self.sim.schedule(
                self._think_rng.expovariate(1.0 / cfg.mean_think),
                self._query_arrives,
                index,
            )
        for index in range(cfg.n_bulk_connections):
            self.sim.schedule(
                self._bulk_rng.random() * 0.1, self._train_arrives, index
            )

    # -- OLTP side (same shape as TPCADemuxSimulation) ---------------------

    def _query_arrives(self, index: int) -> None:
        cfg = self.config
        pcb = self._oltp_pcbs[index]
        self.algorithm.lookup(pcb.four_tuple, PacketKind.DATA)
        self.algorithm.note_send(pcb)
        self.sim.schedule(cfg.response_time, self._response_sent, index)
        think = self._think_rng.expovariate(1.0 / cfg.mean_think)
        self.sim.schedule(
            cfg.response_time + cfg.round_trip + think, self._query_arrives, index
        )

    def _response_sent(self, index: int) -> None:
        self.algorithm.note_send(self._oltp_pcbs[index])
        self.sim.schedule(self.config.round_trip, self._ack_arrives, index)

    def _ack_arrives(self, index: int) -> None:
        self.algorithm.lookup(
            self._oltp_pcbs[index].four_tuple, PacketKind.ACK
        )
        self.oltp_transactions += 1

    # -- bulk side ----------------------------------------------------------

    def _train_arrives(self, index: int) -> None:
        cfg = self.config
        tup = self._bulk_tuples[index]
        segment_gap = 1.0 / cfg.bulk_rate
        for i in range(cfg.train_length):
            self.sim.schedule(i * segment_gap, self._bulk_segment, tup, i)
        # Next train after the current one drains plus an idle gap.
        idle = self._bulk_rng.expovariate(1.0 / (cfg.train_length * segment_gap))
        self.sim.schedule(
            cfg.train_length * segment_gap + idle, self._train_arrives, index
        )

    def _bulk_segment(self, tup: FourTuple, position: int) -> None:
        self.algorithm.lookup(tup, PacketKind.DATA)
        self.bulk_segments += 1
        if position % 2 == 1:
            self.algorithm.lookup(tup, PacketKind.ACK)

    def run(self) -> WorkloadResult:
        cfg = self.config
        self._populate()
        self._start()
        if cfg.warmup:
            self.sim.run(until=cfg.warmup)
            self.algorithm.reset_stats()
            self.oltp_transactions = 0
            self.bulk_segments = 0
        self.sim.run(until=cfg.warmup + cfg.duration)
        return WorkloadResult.from_algorithm(
            self.algorithm,
            workload="mixed",
            n_connections=cfg.n_oltp_users + cfg.n_bulk_connections,
            sim_time=cfg.duration,
        )
