"""The asyncio TCP front end over the pluggable demux engine.

:class:`DemuxServer` binds a real socket and, per accepted connection:

1. optionally consumes a ``HELLO`` frame to learn the client's stable
   id and derive its logical four-tuple (falling back to the socket's
   peer address for foreign clients);
2. installs the connection in the demux algorithm via the
   :class:`~repro.serve.session.SessionTable` (capacity rejects shed
   the connection before any demux state is touched);
3. routes every ``DATA``/``ACK`` frame through ``algorithm.lookup``
   under that four-tuple -- the same hot path, statistics, spans, and
   lifecycle hooks every simulation exercises -- answers with an
   ``ACK`` echo, and feeds the recorder tap;
4. removes the connection on EOF, error, or shutdown.

Concurrency discipline: asyncio is cooperative, so the demux engine is
only ever entered from the event-loop thread and needs no locking.
The one cross-thread edge is the telemetry exporter
(:class:`repro.obs.live.TelemetryServer` renders from HTTP threads);
all registry *writes* happen when the caller publishes the server (its
:meth:`DemuxServer.metrics`) and the algorithm inside the telemetry
server's publisher lock -- exactly the contract the simulation CLI
already follows.

Backpressure is per-connection and natural: the server awaits
``writer.drain()`` after every echo, so a client that stops reading
stalls only its own coroutine while the engine keeps serving everyone
else.  Graceful shutdown (:meth:`stop`) closes the listener, asks the
open handlers to finish their in-flight frame, then cancels stragglers
after ``drain_timeout``.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Any, Dict, List, Optional, Set

from ..core.base import DemuxAlgorithm
from ..core.registry import make_algorithm
from .clock import WallClockAdapter
from .protocol import (
    FRAME_ACK,
    FrameError,
    encode_frame,
    kind_of,
    logical_tuple,
    peer_tuple,
    read_frame,
)
from .recorder import RecorderTap
from .session import SessionRejected, SessionTable

__all__ = ["DemuxServer", "ServeConfig", "ServeReport", "run_self_drive"]


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Parameters of one serving run."""

    algorithm: str = "fast-sequent:h=19"
    host: str = "127.0.0.1"
    port: int = 0
    max_sessions: Optional[int] = None
    #: Seconds :meth:`DemuxServer.stop` waits for handlers to finish
    #: their in-flight frame before cancelling them.
    drain_timeout: float = 5.0
    #: Capture ordering when a recorder is attached.
    record_order: str = "canonical"

    def __post_init__(self) -> None:
        if self.drain_timeout < 0:
            raise ValueError(
                f"drain_timeout must be >= 0, got {self.drain_timeout:g}"
            )
        if self.record_order not in RecorderTap.ORDERS:
            raise ValueError(
                f"unknown record order {self.record_order!r};"
                f" expected one of {list(RecorderTap.ORDERS)}"
            )


class DemuxServer:
    """Asyncio TCP server routing frames through a demux algorithm."""

    def __init__(
        self,
        algorithm: DemuxAlgorithm,
        *,
        config: ServeConfig = ServeConfig(),
        recorder: Optional[RecorderTap] = None,
        clock: Optional[WallClockAdapter] = None,
    ):
        self.algorithm = algorithm
        self.config = config
        self.recorder = recorder
        self.clock = clock if clock is not None else WallClockAdapter()
        self.sessions = SessionTable(
            algorithm, max_sessions=config.max_sessions
        )
        self.protocol_errors = 0
        self.handler_failures = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: Set[asyncio.Task] = set()
        self._accepting = False
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def running(self) -> bool:
        return self._server is not None

    async def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._accept, host=self.config.host, port=self.config.port
        )
        self._accepting = True
        self._started_at = self.clock.now()
        return self.port

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, then cancel."""
        if self._server is None:
            return
        self._accepting = False
        self._server.close()
        await self._server.wait_closed()
        pending = {task for task in self._handlers if not task.done()}
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self.config.drain_timeout
            )
            for task in still_pending:
                task.cancel()
            if still_pending:
                await asyncio.gather(
                    *still_pending, return_exceptions=True
                )
        self._server = None

    @property
    def elapsed(self) -> float:
        """Serving wall seconds (adapter-virtual) since :meth:`start`."""
        return max(0.0, self.clock.now() - self._started_at)

    # -- connection handling -------------------------------------------

    def _accept(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        session = None
        try:
            if not self._accepting:
                return
            # -- handshake: one frame decides the flow's identity.
            try:
                frame = await read_frame(reader)
            except FrameError:
                self.protocol_errors += 1
                return
            if frame is None:
                return  # connected and left without a word
            if frame.is_hello:
                tup = logical_tuple(frame.client_id)
                client_id: Optional[int] = frame.client_id
                first_frame = None
            else:
                tup = peer_tuple(
                    writer.get_extra_info("sockname"),
                    writer.get_extra_info("peername"),
                )
                client_id = None
                first_frame = frame  # already a routable frame

            try:
                session = self.sessions.open(tup, client_id=client_id)
            except SessionRejected:
                return  # shed: close without installing anything
            if self.recorder is not None:
                self.recorder.note_install(tup, client_id=client_id)

            if first_frame is not None:
                await self._route(session, first_frame, writer)
            while True:
                try:
                    frame = await read_frame(reader)
                except FrameError:
                    self.protocol_errors += 1
                    break
                if frame is None:
                    break
                if frame.is_hello:
                    # A second HELLO mid-stream is a protocol error.
                    self.protocol_errors += 1
                    break
                await self._route(session, frame, writer)
        except asyncio.CancelledError:
            raise  # shutdown cancelling stragglers; not a failure
        except ConnectionError:
            pass  # peer vanished mid-write: routine on real sockets
        except Exception:
            self.handler_failures += 1
            self.sessions.note_error()
        finally:
            if session is not None:
                self.sessions.close(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, session, frame, writer) -> None:
        """One frame through the engine, one ACK echo back."""
        from .protocol import HEADER

        self.sessions.note_inbound(
            session, HEADER.size + len(frame.payload)
        )
        kind = kind_of(frame)
        self.algorithm.lookup(session.four_tuple, kind)
        if self.recorder is not None:
            self.recorder.note_packet(
                session.four_tuple,
                kind,
                client_id=session.client_id,
                seq=frame.seq,
            )
        echo = encode_frame(
            FRAME_ACK, frame.client_id, frame.seq
        )
        writer.write(echo)
        await writer.drain()
        self.sessions.note_outbound(session, len(echo))

    # -- telemetry -----------------------------------------------------

    def metrics(self) -> List[tuple]:
        """Serve gauges: sessions by state, the cumulative totals and
        the uptime.

        Absolutes, not deltas, so re-publishing is idempotent; the
        publisher holds the telemetry publisher lock.  ``errors`` folds
        the table's handler errors with ``protocol_errors`` and
        ``handler_failures``; ``rejected`` folds ``rejected_capacity``
        and ``rejected_duplicate``.  A bounded table adds its
        ``max_sessions`` as the ``limit`` state.
        """
        table = self.sessions
        sessions = [({"state": "active"}, table.active),
                    ({"state": "peak"}, table.peak_active)]
        if table.max_sessions is not None:
            sessions.append(({"state": "limit"}, table.max_sessions))
        totals = {
            "accepted": table.accepted,
            "rejected": table.rejected_capacity + table.rejected_duplicate,
            "rejected_capacity": table.rejected_capacity,
            "rejected_duplicate": table.rejected_duplicate,
            "closed": table.closed,
            "errors": (
                table.errors + self.protocol_errors + self.handler_failures
            ),
            "protocol_errors": self.protocol_errors,
            "handler_failures": self.handler_failures,
            "frames_in": table.total_frames_in,
            "frames_out": table.total_frames_out,
            "bytes_in": table.total_bytes_in,
            "bytes_out": table.total_bytes_out,
            "recorded_packets": (
                self.recorder.packet_count if self.recorder is not None else 0
            ),
        }
        return [
            ("serve_sessions", "gauge", "live serving sessions", sessions),
            ("serve_totals", "gauge", "cumulative serving counters",
             [({"what": what}, value) for what, value in totals.items()]),
            ("serve_uptime_seconds", "gauge",
             "serving seconds since the listener started",
             [({}, self.elapsed)]),
        ]


@dataclasses.dataclass
class ServeReport:
    """Outcome of one self-driven serving run."""

    port: int
    algorithm: str
    clients: int
    frames_sent: int
    acks_received: int
    load_errors: int
    duration: float
    sessions: Dict[str, Any]
    capture_path: Optional[str] = None
    capture_digest: Optional[str] = None
    health: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        healthy = (
            self.health is None or self.health.get("state") != "failing"
        )
        return (
            self.load_errors == 0
            and self.acks_received == self.frames_sent
            and healthy
        )

    def render_text(self) -> str:
        rejected = (
            self.sessions["rejected_capacity"]
            + self.sessions["rejected_duplicate"]
        )
        lines = [
            f"serve: {self.algorithm} on port {self.port}"
            f" ({self.clients} clients, {self.duration:.3f}s)",
            f"  frames: sent={self.frames_sent}"
            f" acked={self.acks_received} errors={self.load_errors}",
            f"  sessions: accepted={self.sessions['accepted']}"
            f" peak={self.sessions['peak_sessions']}"
            f" rejected={rejected}"
            f" errors={self.sessions['errors']}",
        ]
        if self.capture_path:
            lines.append(
                f"  capture: {self.capture_path}"
                f" (digest {self.capture_digest[:12]}...)"
            )
        if self.health is not None:
            lines.append(f"  health: {self.health.get('state', '?')}")
        lines.append("  verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


async def run_self_drive(
    config: ServeConfig,
    load,
    *,
    record_path: Optional[str] = None,
    record_seed: Optional[int] = None,
    telemetry_port: Optional[int] = None,
    algorithm: Optional[DemuxAlgorithm] = None,
    on_telemetry=None,
) -> ServeReport:
    """Serve a seeded loop-back swarm end to end; the CI smoke's core.

    Starts the server, optionally a live telemetry exporter, drives
    ``load`` (a :class:`~repro.serve.loadgen.LoadConfig`) against it,
    shuts down gracefully, and -- when ``record_path`` is given --
    writes the capture.  ``on_telemetry`` (called with the running
    :class:`~repro.obs.live.TelemetryServer`) lets callers scrape
    mid-run.
    """
    from .loadgen import LoadGenerator

    if algorithm is None:
        algorithm = make_algorithm(config.algorithm)
    recorder = None
    if record_path is not None:
        recorder = RecorderTap(
            order=config.record_order,
            seed=load.seed if record_seed is None else record_seed,
        )
    server = DemuxServer(algorithm, config=config, recorder=recorder)
    port = await server.start()

    telemetry = None
    watchdog = None
    health = None
    if telemetry_port is not None:
        from ..obs.live import TelemetryServer
        from ..obs.metrics import MetricsRegistry
        from ..obs.watchdog import HealthWatchdog, default_rules

        registry = MetricsRegistry()
        watchdog = HealthWatchdog(default_rules())
        telemetry = TelemetryServer(
            registry,
            watchdog=watchdog,
            port=telemetry_port,
            clock=server.clock.now,
        )
        telemetry.start()

        def publish() -> None:
            with telemetry.lock:
                registry.publish(algorithm)
                registry.publish(server)

        publish()
    try:
        generator = LoadGenerator(load)
        report = await generator.run(config.host, port)
        if telemetry is not None:
            publish()
            if on_telemetry is not None:
                maybe = on_telemetry(telemetry)
                if asyncio.iscoroutine(maybe):
                    await maybe
    finally:
        await server.stop()
        duration = server.elapsed
        if telemetry is not None:
            publish()
            health = watchdog.evaluate(
                telemetry.registry, now=server.clock.now()
            ).to_dict()
            telemetry.stop()

    digest = None
    if recorder is not None and record_path is not None:
        digest = recorder.save(record_path, duration=duration)
    return ServeReport(
        port=port,
        algorithm=algorithm.name,
        clients=load.clients,
        frames_sent=report.frames_sent,
        acks_received=report.acks_received,
        load_errors=report.errors,
        duration=duration,
        sessions=server.sessions.snapshot(),
        capture_path=record_path,
        capture_digest=digest,
        health=health,
    )
