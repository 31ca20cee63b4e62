"""Event tracing for the demultiplexing hot path.

A :class:`Tracer` is an observer the rest of the stack emits
:class:`TraceEvent` records into -- one per lookup, insert, remove,
send-note, or simulator event dispatch.  Events go to the tracer's
one *sink*: a bounded :class:`RingBufferSink` keeps the last K events
in memory, a :class:`JsonlSink` writes machine-readable traces to
disk.  With the JSONL sink, any figure run can be replayed or diffed
lookup by lookup (``read_jsonl`` loads a trace back as dictionaries).

Overhead contract: a structure with no tracer attached pays one
``is None`` check per operation; a disabled tracer pays one extra
attribute load.  Event construction happens only when a tracer is
attached *and* enabled.  This module deliberately imports nothing from
the rest of :mod:`repro`, so it sits at the bottom of the layer stack
(``core`` depends on ``obs``, never the reverse).

Virtual time: the tracer stamps events via its ``clock`` -- any
zero-argument callable returning seconds.  Workloads bind it to their
simulator (``tracer.clock = lambda: sim.now``), which
:meth:`Tracer.attach_simulator` does for you along with installing a
dispatch probe.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    List,
    Optional,
    Union,
)

from ..packet.addresses import FourTuple

__all__ = [
    "TraceEvent",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "Tracer",
    "read_jsonl",
]


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence on the demux hot path.

    ``kind`` is the event class: ``"lookup"``, ``"insert"``,
    ``"remove"``, ``"note_send"``, or ``"sim.event"``.  Lookup events
    carry the cost fields the paper measures (``examined``,
    ``cache_hit``, ``found``); structural events carry the four-tuple
    only; simulator events carry the dispatched callback's name in
    ``detail``.
    """

    #: Virtual time in seconds (0.0 when no clock is bound).
    time: float
    #: Event class (see class docstring).
    kind: str
    #: ``DemuxAlgorithm.name`` of the emitting structure, if any.
    algorithm: str = ""
    #: The 96-bit demux key involved.
    four_tuple: Optional[FourTuple] = None
    #: ``"data"`` or ``"ack"`` for lookup events.
    packet_kind: Optional[str] = None
    #: PCBs examined (lookup events; the paper's figure of merit).
    examined: int = 0
    cache_hit: bool = False
    found: bool = False
    #: Free-form annotation (simulator callback name, etc.).
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable dict, omitting empty optional fields."""
        record: Dict[str, Any] = {"time": self.time, "kind": self.kind}
        if self.algorithm:
            record["algorithm"] = self.algorithm
        if self.four_tuple is not None:
            record["four_tuple"] = self.four_tuple.to_wire()
        if self.packet_kind is not None:
            record["packet_kind"] = self.packet_kind
        if self.kind == "lookup":
            record["examined"] = self.examined
            record["cache_hit"] = self.cache_hit
            record["found"] = self.found
        if self.detail:
            record["detail"] = self.detail
        return record


class TraceSink:
    """Where trace events go.  Subclasses override :meth:`emit`."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered events to durable storage (default: no-op)."""

    def close(self) -> None:
        """Flush and release resources (default: nothing to do)."""


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` events in memory.

    When full, the oldest event is silently overwritten (classic
    flight-recorder semantics); ``dropped`` counts the overwrites so a
    consumer knows the window is partial.
    """

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buffer: "deque[TraceEvent]" = deque(maxlen=capacity)
        self.total_emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self.total_emitted += 1
        self._buffer.append(event)

    @property
    def dropped(self) -> int:
        """Events overwritten by wraparound."""
        return self.total_emitted - len(self._buffer)

    @property
    def events(self) -> List[TraceEvent]:
        """The buffered window, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()
        self.total_emitted = 0


class JsonlSink(TraceSink):
    """Writes one JSON object per line to ``path`` (or an open file).

    Crash-safe by construction: each event is a *single* atomic
    ``write`` of a complete line (never a record split across two
    writes), and the context manager flushes on the way out even when
    the body raised -- a sim that dies mid-run leaves a readable trace
    truncated at a line boundary, not a torn JSON object.
    """

    def __init__(self, path: Union[str, pathlib.Path, IO[str]]):
        if hasattr(path, "write"):
            self._file: IO[str] = path  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(path, "w", encoding="utf-8")
            self._owns_file = True
        self.lines_written = 0

    def emit(self, event: TraceEvent) -> None:
        line = json.dumps(event.to_dict(), separators=(",", ":")) + "\n"
        self._file.write(line)
        self.lines_written += 1

    def flush(self) -> None:
        if not self._file.closed:
            self._file.flush()

    def close(self) -> None:
        if self._file.closed:
            return
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_jsonl(path: Union[str, pathlib.Path]) -> List[Dict[str, Any]]:
    """Load a JSONL dump -- a trace, or a span dump -- back as a list
    of dicts (for replay/diff)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _lookup_event(time: float, algorithm: str, four_tuple, result) -> TraceEvent:
    return TraceEvent(
        time=time,
        kind="lookup",
        algorithm=algorithm,
        four_tuple=four_tuple,
        packet_kind=result.kind.value,
        examined=result.examined,
        cache_hit=result.cache_hit,
        found=result.found,
    )


class Tracer:
    """Writes trace events to one sink.

    ``clock`` is any zero-argument callable returning the current time
    in seconds; unbound tracers stamp 0.0.  ``enabled`` is the master
    switch hot paths check before constructing events.
    """

    def __init__(
        self,
        sink: TraceSink,
        *,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
    ):
        self.sink = sink
        self.clock = clock
        self.enabled = enabled

    def flush(self) -> None:
        """Flush the sink without closing it."""
        self.sink.flush()

    def close(self) -> None:
        """Close the sink (flushes a JSONL file)."""
        self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- emission --------------------------------------------------------

    def now(self) -> float:
        clock = self.clock
        return clock() if clock is not None else 0.0

    def emit(self, event: TraceEvent) -> None:
        if self.enabled:
            self.sink.emit(event)

    def emit_lookup(self, algorithm: str, four_tuple, result) -> None:
        """Trace one cost-accounted lookup (``result`` is a LookupResult)."""
        self.emit(_lookup_event(self.now(), algorithm, four_tuple, result))

    def emit_lookups(self, algorithm: str, packets, results) -> None:
        """Trace a batch: one lookup event per ``(packet, result)``.

        The events :meth:`emit_lookup` would emit packet by packet, in
        order, stamped with one clock reading (virtual time does not
        move inside a batch).
        """
        now = self.now()
        for (four_tuple, _), result in zip(packets, results):
            self.emit(_lookup_event(now, algorithm, four_tuple, result))

    def emit_insert(self, algorithm: str, four_tuple) -> None:
        self.emit(
            TraceEvent(
                time=self.now(), kind="insert",
                algorithm=algorithm, four_tuple=four_tuple,
            )
        )

    def emit_remove(self, algorithm: str, four_tuple) -> None:
        self.emit(
            TraceEvent(
                time=self.now(), kind="remove",
                algorithm=algorithm, four_tuple=four_tuple,
            )
        )

    def emit_note_send(self, algorithm: str, four_tuple) -> None:
        self.emit(
            TraceEvent(
                time=self.now(), kind="note_send",
                algorithm=algorithm, four_tuple=four_tuple,
            )
        )

    # -- simulator integration -------------------------------------------

    def attach_simulator(self, sim) -> None:
        """Bind this tracer's clock to ``sim`` and trace event dispatch.

        Installs a dispatch probe (see ``Simulator.probe``) that emits
        a ``sim.event`` record, carrying the callback's name, for every
        event the simulator runs.  Also wraps ``sim.run`` so the sink is
        *closed* when a run drains the event heap (the sim completed)
        and *flushed* otherwise -- a crashed or paused run still leaves
        a readable trace, and a finished one needs no manual close.
        """
        if self.clock is None:
            self.clock = lambda: sim.now

        def probe(event) -> None:
            if self.enabled:
                name = getattr(event.callback, "__name__", repr(event.callback))
                self.emit(
                    TraceEvent(time=event.time, kind="sim.event", detail=name)
                )

        sim.probe = probe

        if getattr(sim, "_tracer_wrapped_run", None) is self:
            return  # already wrapped by this tracer
        original_run = sim.run

        def traced_run(*args, **kwargs):
            try:
                result = original_run(*args, **kwargs)
            except BaseException:
                self.flush()
                raise
            # Periodic events (lifecycle reaping, live publishing) keep
            # the heap non-empty forever; only a drained heap means the
            # simulation is truly over and the sink can be closed.
            if sim.pending == 0:
                self.close()
            else:
                self.flush()
            return result

        sim.run = traced_run
        sim._tracer_wrapped_run = self
