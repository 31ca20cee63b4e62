"""Live serving: real sockets in front of the simulated demux engine.

Everything below :mod:`repro.serve` runs in *virtual* time; this
package is the wall-clock front end.  An asyncio TCP server
(:class:`DemuxServer`) binds real sockets, accepts concurrent client
connections, and routes every arriving frame through the same
pluggable demux engine the simulations use (any
:func:`repro.core.registry.make_algorithm` spec, including ``fast-``
and ``sharded-`` variants), with the existing observability plane --
metrics registry, packet spans, SLO watchdog, and the
:class:`repro.obs.live.TelemetryServer` HTTP exporter -- attached
live.

The record/replay bridge: a :class:`RecorderTap` captures served
traffic into the :class:`repro.workload.record.RecordedStream` format,
so real captures feed the canary gate and every other replay
byte-for-byte.  A seeded loop-back client swarm
(:class:`LoadGenerator`) makes the whole loop self-contained and --
with canonical capture ordering -- deterministic: serving the same
seeded swarm twice records byte-identical captures.

See docs/serving.md for the architecture and the canary workflow.
"""

from .clock import WallClockAdapter
from .loadgen import LoadConfig, LoadGenerator, LoadReport, frame_plan
from .protocol import (
    FRAME_ACK,
    FRAME_DATA,
    FRAME_HELLO,
    Frame,
    FrameError,
    encode_frame,
    logical_tuple,
    read_frame,
)
from .recorder import RecorderTap
from .server import DemuxServer, ServeConfig, ServeReport, run_self_drive
from .session import Session, SessionTable

__all__ = [
    "DemuxServer",
    "Frame",
    "FrameError",
    "FRAME_ACK",
    "FRAME_DATA",
    "FRAME_HELLO",
    "LoadConfig",
    "LoadGenerator",
    "LoadReport",
    "RecorderTap",
    "ServeConfig",
    "ServeReport",
    "Session",
    "SessionTable",
    "WallClockAdapter",
    "encode_frame",
    "frame_plan",
    "logical_tuple",
    "read_frame",
    "run_self_drive",
]
