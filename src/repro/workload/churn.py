"""TPC/A with connection churn: sessions that end and reconnect.

The paper's model holds the connection population fixed -- reasonable
for heads-down terminals logged in all shift -- but real OLTP fleets
cycle: clients reconnect after idle timeouts, crashes, or session
limits.  Churn exercises the structures' *mutation* paths (insert,
remove, cache invalidation) under load, which no fixed-population
experiment touches, and it shifts list order continuously: in BSD and
MTF, a reconnecting user's PCB re-enters at the head, so churn
actually *helps* the list structures a little while costing the hashed
structure nothing.

Model: the demux-level TPC/A arrival process, where each user
disconnects after a geometrically distributed number of transactions
(mean ``transactions_per_session``) and reconnects on a fresh
ephemeral port after ``reconnect_delay``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..core.base import DemuxAlgorithm
from ..core.pcb import PCB
from ..core.stats import PacketKind
from ..packet.addresses import FourTuple
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from .base import WorkloadResult, bind_tracer_clock
from .thinktime import ExponentialThink, ThinkTimeModel
from .tpca import TPCAConfig

__all__ = ["ChurnConfig", "ChurnWorkload"]


@dataclasses.dataclass(frozen=True)
class ChurnConfig:
    """Parameters of a churning TPC/A run."""

    n_users: int = 500
    response_time: float = 0.2
    round_trip: float = 0.001
    think_model: ThinkTimeModel = ExponentialThink(10.0)
    #: Mean transactions before a user disconnects (geometric).
    transactions_per_session: float = 20.0
    #: Seconds between disconnect and the new connection's first use.
    reconnect_delay: float = 1.0
    duration: float = 120.0
    warmup: float = 20.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("need at least one user")
        if self.transactions_per_session < 1:
            raise ValueError("transactions_per_session must be >= 1")
        if self.reconnect_delay < 0:
            raise ValueError("reconnect delay must be non-negative")
        if self.duration <= 0 or self.warmup < 0:
            raise ValueError("duration must be positive, warmup non-negative")
        if self.response_time < 0 or self.round_trip < 0:
            raise ValueError("times must be non-negative")


class ChurnWorkload:
    """Demux-level TPC/A with per-user session churn."""

    def __init__(self, config: ChurnConfig, algorithm: DemuxAlgorithm):
        self.config = config
        self.algorithm = algorithm
        self.sim = Simulator()
        bind_tracer_clock(algorithm, self.sim)
        rngs = RngRegistry(config.seed)
        self._think_rng = rngs.stream("churn.think")
        self._session_rng = rngs.stream("churn.session")
        self._pcbs: List[Optional[PCB]] = [None] * config.n_users
        # Each reconnect takes the next port for that user.
        self._generation = [0] * config.n_users
        self._base_config = TPCAConfig(n_users=config.n_users)
        self.transactions_completed = 0
        self.sessions_completed = 0

    def _tuple_for(self, index: int) -> FourTuple:
        base = self._base_config.user_tuple(index)
        generation = self._generation[index]
        port = 40000 + (base.remote_port - 40000 + generation * 631) % 25000
        return base._replace(remote_port=port)

    def _connect(self, index: int) -> None:
        pcb = PCB(self._tuple_for(index))
        self.algorithm.insert(pcb)
        self._pcbs[index] = pcb

    def _disconnect(self, index: int) -> None:
        pcb = self._pcbs[index]
        if pcb is not None:
            self.algorithm.remove(pcb.four_tuple)
            self._pcbs[index] = None
            self._generation[index] += 1
            self.sessions_completed += 1

    def _session_ends_now(self) -> bool:
        return (
            self._session_rng.random()
            < 1.0 / self.config.transactions_per_session
        )

    def _start(self) -> None:
        for index in range(self.config.n_users):
            self._connect(index)
            delay = self.config.think_model.sample(self._think_rng)
            self.sim.schedule(delay, self._query_arrives, index)

    def _query_arrives(self, index: int) -> None:
        cfg = self.config
        pcb = self._pcbs[index]
        if pcb is None:  # disconnected mid-flight; reconnect path owns it
            return
        self.algorithm.lookup(pcb.four_tuple, PacketKind.DATA)
        self.algorithm.note_send(pcb)
        self.sim.schedule(cfg.response_time, self._response_sent, index)

    def _response_sent(self, index: int) -> None:
        pcb = self._pcbs[index]
        if pcb is None:
            return
        self.algorithm.note_send(pcb)
        self.sim.schedule(self.config.round_trip, self._ack_arrives, index)

    def _ack_arrives(self, index: int) -> None:
        cfg = self.config
        pcb = self._pcbs[index]
        if pcb is None:
            return
        self.algorithm.lookup(pcb.four_tuple, PacketKind.ACK)
        self.transactions_completed += 1
        if self._session_ends_now():
            self._disconnect(index)
            self.sim.schedule(cfg.reconnect_delay, self._reconnect, index)
        else:
            think = cfg.think_model.sample(self._think_rng)
            self.sim.schedule(think, self._query_arrives, index)

    def _reconnect(self, index: int) -> None:
        self._connect(index)
        think = self.config.think_model.sample(self._think_rng)
        self.sim.schedule(think, self._query_arrives, index)

    def run(self) -> WorkloadResult:
        cfg = self.config
        self._start()
        if cfg.warmup:
            self.sim.run(until=cfg.warmup)
            self.algorithm.reset_stats()
            self.transactions_completed = 0
            self.sessions_completed = 0
        self.sim.run(until=cfg.warmup + cfg.duration)
        return WorkloadResult.from_algorithm(
            self.algorithm,
            workload="churn",
            n_connections=cfg.n_users,
            sim_time=cfg.duration,
        )
