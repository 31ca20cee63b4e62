"""The TPC/A communications workload (paper Section 2).

Each of N simulated users repeatedly (1) enters a transaction,
(2) waits for the response, (3) thinks for an exponentially distributed
time.  Each transaction is four packets -- query, transport-level ack
of the query, response, transport-level ack of the response -- of which
the *server* receives two: the query (a data packet) and the response's
ack.  The server's PCB-lookup cost for those two packet classes is what
the whole paper analyzes.

Two simulation fidelities share one configuration:

* :class:`TPCADemuxSimulation` drives the demultiplexing structure
  directly with the arrival process (no byte-level packets, no TCP
  state machine).  This is the scale workhorse: it runs 2,000 users for
  hundreds of simulated seconds in seconds of real time, and is what
  the analytic-validation benches use.
* :class:`TPCAFullStackSimulation` runs real :class:`HostStack` clients
  against a real server over the simulated network -- handshakes, real
  segments, the works -- and measures the same statistics.  Integration
  tests use it at moderate N to show both fidelities agree.

Timing model (matching the paper's Figures 5/6/9-11): a user's query
arrives at the server; the server immediately acks it (outbound), sends
the response ``R`` seconds later (outbound), and the response's ack
returns a full round trip ``D`` after that; the user then thinks ``T``,
and -- the paper's crucial simplifying assumption, which we reproduce
-- may enter his next transaction without waiting for the previous
response, making successive query arrivals ``R + D + T`` apart.

``packets_per_exchange`` models the Section 3.4 anecdote of database
software sending "three times as many packets for each transaction as
necessary": the extra copies arrive back-to-back, inflating the cache
hit ratio (up to the paper's 67%) without reducing PCBs searched per
transaction -- the hit-ratio pitfall.
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..core.base import DemuxAlgorithm
from ..core.pcb import PCB
from ..core.stats import PacketKind
from ..packet.addresses import FourTuple, IPv4Address
from ..sim.engine import Simulator
from ..sim.network import Network
from ..sim.rng import RngRegistry
from ..tcpstack.stack import HostStack
from .base import WorkloadResult, bind_tracer_clock
from .thinktime import ExponentialThink, ThinkTimeModel

__all__ = [
    "TPCAConfig",
    "TPCADemuxSimulation",
    "TPCAFullStackSimulation",
    "SERVER_ADDRESS",
    "SERVER_PORT",
]

SERVER_ADDRESS = IPv4Address("10.0.0.1")
SERVER_PORT = 1521

#: Users' addresses count up from here (see ``TPCAConfig.user_tuple``).
_USER_BASE = IPv4Address("10.1.0.0")


@dataclasses.dataclass(frozen=True)
class TPCAConfig:
    """Parameters of one TPC/A run.

    Defaults are the paper's running example: a 200-TPS benchmark has
    2,000 users (the 10x scaling rule), 10 s mean think time
    (a = 0.1/s), 200 ms response time, 1 ms LAN round trip.
    """

    n_users: int = 2000
    response_time: float = 0.2
    round_trip: float = 0.001
    think_model: ThinkTimeModel = ExponentialThink(10.0)
    #: Duplicate data/ack packets per exchange (1 = the efficient
    #: 4-packet transaction; 3 = the paper's chatty-database anecdote).
    packets_per_exchange: int = 1
    #: Simulated seconds to run after warm-up.
    duration: float = 120.0
    #: Simulated seconds before statistics start.
    warmup: float = 20.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError(f"need at least one user, got {self.n_users}")
        if self.response_time < 0:
            raise ValueError("response time must be non-negative")
        if self.round_trip < 0:
            raise ValueError("round trip must be non-negative")
        if self.packets_per_exchange < 1:
            raise ValueError("packets_per_exchange must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")

    @property
    def per_user_rate(self) -> float:
        """The paper's ``a``: transactions per user-second."""
        return 1.0 / self.think_model.mean

    @property
    def transaction_rate(self) -> float:
        """Aggregate TPS (the benchmark's headline number ~ N/10)."""
        return self.n_users * self.per_user_rate

    def user_tuple(self, index: int) -> FourTuple:
        """The server-side four-tuple of user ``index``'s connection.

        Users are spread across /24-sized client subnets with
        sequential ephemeral ports -- the address pattern the
        hash-balance experiments care about.
        """
        if not 0 <= index < self.n_users:
            raise ValueError(f"user index {index} out of range")
        host = _USER_BASE + (256 + (index // 250) * 256 + index % 250 + 1)
        port = 40000 + index % 20000
        return FourTuple(SERVER_ADDRESS, SERVER_PORT, host, port)


class TPCADemuxSimulation:
    """Demux-level TPC/A: the arrival process drives the algorithm."""

    def __init__(self, config: TPCAConfig, algorithm: DemuxAlgorithm):
        self.config = config
        self.algorithm = algorithm
        self.sim = Simulator()
        bind_tracer_clock(algorithm, self.sim)
        self._rng = RngRegistry(config.seed).stream("tpca.think")
        self._pcbs: List[PCB] = []
        self.transactions_completed = 0

    def _populate(self) -> None:
        """Install one established-connection PCB per user."""
        for index in range(self.config.n_users):
            pcb = PCB(self.config.user_tuple(index))
            self.algorithm.insert(pcb)
            self._pcbs.append(pcb)

    def _schedule_first_arrivals(self) -> None:
        """Stagger users by a random initial think so phases decorrelate."""
        for index in range(self.config.n_users):
            delay = self.config.think_model.sample(self._rng)
            self.sim.schedule(delay, self._query_arrives, index)

    def _query_arrives(self, index: int) -> None:
        cfg = self.config
        pcb = self._pcbs[index]
        tup = pcb.four_tuple
        # The query (a data packet), plus any redundant copies
        # arriving back to back.
        for _ in range(cfg.packets_per_exchange):
            self.algorithm.lookup(tup, PacketKind.DATA)
        # Server acks the query immediately (outbound).
        self.algorithm.note_send(pcb)
        # Response leaves R later (outbound).
        self.sim.schedule(cfg.response_time, self._response_sent, index)
        # Next query from this user arrives R + D + T after this one.
        think = cfg.think_model.sample(self._rng)
        self.sim.schedule(
            cfg.response_time + cfg.round_trip + think, self._query_arrives, index
        )

    def _response_sent(self, index: int) -> None:
        self.algorithm.note_send(self._pcbs[index])
        # The response's transport-level ack arrives D after it left.
        self.sim.schedule(self.config.round_trip, self._ack_arrives, index)

    def _ack_arrives(self, index: int) -> None:
        tup = self._pcbs[index].four_tuple
        for _ in range(self.config.packets_per_exchange):
            self.algorithm.lookup(tup, PacketKind.ACK)
        self.transactions_completed += 1

    def run(self) -> WorkloadResult:
        """Populate, warm up, measure, and snapshot the statistics."""
        cfg = self.config
        self._populate()
        self._schedule_first_arrivals()
        if cfg.warmup:
            self.sim.run(until=cfg.warmup)
            self.algorithm.reset_stats()
            self.transactions_completed = 0
        self.sim.run(until=cfg.warmup + cfg.duration)
        return WorkloadResult.from_algorithm(
            self.algorithm,
            workload="tpca",
            n_connections=cfg.n_users,
            sim_time=cfg.duration,
        )


class TPCAFullStackSimulation:
    """Full-fidelity TPC/A: real handshakes, segments, and state machines.

    One :class:`HostStack` per user keeps client-side demultiplexing
    trivially cheap (each client has one connection), so the *server's*
    algorithm is the only interesting cost -- as in the paper, where
    "this packet will be received only by a client" dismisses the
    client side.
    """

    QUERY = b"x" * 100  # ~100-byte OLTP request
    RESPONSE = b"y" * 200  # ~200-byte OLTP reply

    def __init__(
        self,
        config: TPCAConfig,
        algorithm: DemuxAlgorithm,
        *,
        client_algorithm_factory=None,
        fault_models=None,
        max_connections=None,
        overflow_policy: str = "reject-new",
        idle_timeout=None,
        time_wait_timeout=None,
        spans=None,
    ):
        from ..core.bsd import BSDDemux

        self.config = config
        self.algorithm = algorithm
        self.sim = Simulator()
        bind_tracer_clock(algorithm, self.sim)
        self._rngs = RngRegistry(config.seed)
        #: Fault pipeline, when the run is adversarial.  Imported
        #: lazily so the base workload keeps its import graph clean.
        self.injector = None
        link_factory = None
        if fault_models:
            from ..faults.injector import FaultInjector, FaultyLink

            injector = FaultInjector(
                self.sim, fault_models, rng_registry=self._rngs.spawn("faults")
            )
            self.injector = injector

            def link_factory(sim, delay):
                return FaultyLink(sim, delay, injector=injector)

        self.network = Network(
            self.sim,
            default_delay=config.round_trip / 2.0,
            link_factory=link_factory,
        )
        self._client_factory = client_algorithm_factory or BSDDemux
        # Spans watch the server stack: the paper dismisses client-side
        # demux ("this packet will be received only by a client"), and
        # so does the per-packet journey record.
        self.server = HostStack(
            self.sim,
            self.network,
            SERVER_ADDRESS,
            algorithm,
            max_connections=max_connections,
            overflow_policy=overflow_policy,
            idle_timeout=idle_timeout,
            time_wait_timeout=time_wait_timeout,
            spans=spans,
        )
        self.clients: List[HostStack] = []
        self.transactions_completed = 0
        #: Completed transactions per user index -- the fault matrix's
        #: goodput signal ("did every non-blackholed user get through?").
        self.transactions_by_user: List[int] = [0] * config.n_users
        self._connected = 0
        #: User-perceived response times (query sent -> response
        #: received), for the TPC/A validity rule: at least 90% of
        #: transactions must respond within two seconds (paper §2).
        self.response_times: List[float] = []

    def _setup(self) -> None:
        cfg = self.config
        think_rng = self._rngs.stream("tpca.think")
        self.server.listen(SERVER_PORT, on_data=self._server_on_data)
        for index in range(cfg.n_users):
            tup = cfg.user_tuple(index)
            client = HostStack(
                self.sim, self.network, tup.remote_addr, self._client_factory()
            )
            self.clients.append(client)
            # Stagger connection setup over the first second so the
            # server's listener is not hit by N simultaneous SYNs.
            start = index * (1.0 / max(cfg.n_users, 1))
            self.sim.schedule(
                start, self._connect_user, index, client, tup, think_rng
            )

    def _connect_user(
        self, index: int, client: HostStack, tup: FourTuple, think_rng
    ) -> None:
        # Per-endpoint timestamp of the in-flight query, for response
        # time measurement (one outstanding transaction per user).
        pending = {"sent_at": None}

        def on_establish(endpoint) -> None:
            self._connected += 1
            think = self.config.think_model.sample(think_rng)
            self.sim.schedule(think, self._enter_transaction, endpoint,
                              think_rng, pending)

        def on_data(endpoint, data: bytes) -> None:
            # Response received: think, then enter the next transaction.
            self.transactions_completed += 1
            self.transactions_by_user[index] += 1
            if pending["sent_at"] is not None:
                self.response_times.append(self.sim.now - pending["sent_at"])
                pending["sent_at"] = None
            think = self.config.think_model.sample(think_rng)
            self.sim.schedule(think, self._enter_transaction, endpoint,
                              think_rng, pending)

        client.connect(
            tup.local_addr,  # the server, from the client's viewpoint
            tup.local_port,
            local_port=tup.remote_port,
            on_establish=on_establish,
            on_data=on_data,
        )

    def _enter_transaction(self, endpoint, think_rng, pending) -> None:
        from ..tcpstack.states import TCPState

        if endpoint.state is TCPState.ESTABLISHED:
            pending["sent_at"] = self.sim.now
            endpoint.send(self.QUERY)

    def response_time_percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of measured response times."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.response_times:
            return 0.0
        ordered = sorted(self.response_times)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    @property
    def meets_tpca_response_rule(self) -> bool:
        """TPC/A validity: >= 90% of transactions within two seconds."""
        return self.response_time_percentile(0.90) <= 2.0

    @property
    def users_completed(self) -> int:
        """Users with at least one measured completed transaction."""
        return sum(1 for count in self.transactions_by_user if count > 0)

    def _server_on_data(self, endpoint, data: bytes) -> None:
        # "Database processing" takes R; then the response goes out.
        self.sim.schedule(
            self.config.response_time, self._server_respond, endpoint
        )

    def _server_respond(self, endpoint) -> None:
        from ..tcpstack.states import TCPState

        if endpoint.state in (TCPState.ESTABLISHED, TCPState.CLOSE_WAIT):
            endpoint.send(self.RESPONSE)

    def run(self) -> WorkloadResult:
        cfg = self.config
        self._setup()
        # Let every connection establish before measuring: handshake
        # packets would otherwise pollute the steady-state statistics.
        settle = max(2.0, cfg.warmup)
        self.sim.run(until=settle)
        self.algorithm.reset_stats()
        self.transactions_completed = 0
        self.transactions_by_user = [0] * cfg.n_users
        self.response_times.clear()
        self.sim.run(until=settle + cfg.duration)
        return WorkloadResult.from_algorithm(
            self.algorithm,
            workload="tpca-fullstack",
            n_connections=len(self.server.table),
            sim_time=cfg.duration,
        )
