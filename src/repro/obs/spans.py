"""Causal per-packet spans: one packet's journey across the layers.

The counters in :mod:`repro.obs.metrics` say *how much* (lookups,
PCBs examined, drops); the traces in :mod:`repro.obs.trace` say *what
happened*, one layer at a time.  Neither can answer "what happened to
*that* packet?" -- the question every production demultiplexer gets
asked when a connection misbehaves.  A :class:`PacketSpan` answers it:
a single record, correlated by span id, collecting the packet's
stages in order --

    steer (RSS shard choice) -> coalesce (batch membership) ->
    lookup (PCBs examined, cache hit) -> deliver / drop (taxonomy
    reason)

plus standalone ``reap`` spans when the lifecycle layer evicts a
connection.

Design constraints, in priority order:

1. **Untraced runs pay one ``is None`` check per hook** -- exactly the
   contract the tracer and profiler already honour.  The collector is
   attached via ``algorithm.spans`` (a template-method hook on
   :class:`repro.core.base.DemuxAlgorithm`) and via constructor
   parameters on the stack / SMP layers; when absent, nothing else
   runs.
2. **Sampling bounds the cost.**  Every packet increments one counter;
   only every ``sample_every``-th packet materialises a span object.
   Packet observers (the train-ness detector needs adjacency, which
   sampling would destroy) are explicitly separate: each receives the
   packets a batch at a time, so its cost is one call per batch plus
   its own loop.
3. **Fixed memory.**  Finished spans land in a
   :class:`FlightRecorder` -- per-connection ring buffers with an LRU
   cap on the number of connections -- never an unbounded list.

The simulator is single-threaded and processes one packet at a time,
so the collector holds *one* open packet context.  Each layer opens
the context with its own ``owner`` tag and only the opener's
``close_packet`` call closes it; inner layers (the demux lookup under
a stack delivery) observe the already-open span instead of starting a
nested one.  The coalescer, which buffers packets, opens its spans at
*flush* time -- span order is delivery order, which is exactly what
the train-ness detector must see.
"""

from __future__ import annotations

import itertools
import json
from collections import OrderedDict, deque
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "DEFAULT_SPAN_SAMPLE_EVERY",
    "FlightRecorder",
    "PacketSpan",
    "SpanCollector",
    "SpanStage",
    "write_spans_jsonl",
]

#: Matches the profiler's default: a 1-in-64 sample keeps span cost in
#: the noise while still populating the sketches quickly.
DEFAULT_SPAN_SAMPLE_EVERY = 64

#: Stage names that decide a span's outcome.
_TERMINAL_STAGES = {"deliver": "delivered", "drop": "dropped"}


class SpanStage:
    """One step of a packet's journey: a name, a time, and details."""

    __slots__ = ("name", "time", "data")

    def __init__(self, name: str, time: float, data: Dict[str, Any]):
        self.name = name
        self.time = time
        self.data = data

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "time": self.time}
        out.update(self.data)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanStage({self.name!r}, t={self.time}, {self.data!r})"


class PacketSpan:
    """A correlated record of one packet (or one reap) across layers."""

    __slots__ = ("span_id", "four_tuple", "kind", "start", "end",
                 "outcome", "stages")

    def __init__(
        self,
        span_id: int,
        four_tuple: Optional[object],
        kind: str,
        start: float,
    ):
        self.span_id = span_id
        self.four_tuple = four_tuple
        self.kind = kind
        self.start = start
        self.end = start
        #: ``open`` until a terminal stage or ``close_packet`` decides.
        self.outcome = "open"
        self.stages: List[SpanStage] = []

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def find_stage(self, name: str) -> Optional[SpanStage]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def to_dict(self) -> Dict[str, Any]:
        tup = self.four_tuple
        return {
            "span_id": self.span_id,
            "four_tuple": None if tup is None else tup.to_wire(),
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketSpan(#{self.span_id} {self.kind} {self.outcome}"
            f" stages={self.stage_names()})"
        )


class FlightRecorder:
    """Bounded per-connection ring buffers of finished spans.

    Keeps the last ``per_connection`` spans for each of at most
    ``max_connections`` connections (least-recently-written evicted
    first), so a long run retains the *recent* history of every active
    flow -- the flight-recorder a postmortem wants -- in fixed memory.
    """

    def __init__(self, per_connection: int = 8,
                 max_connections: int = 1024):
        if per_connection < 1:
            raise ValueError(
                f"per_connection must be >= 1, got {per_connection}"
            )
        if max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        self.per_connection = per_connection
        self.max_connections = max_connections
        self._rings: "OrderedDict[Any, deque]" = OrderedDict()
        self.total_recorded = 0
        #: Spans pushed out of a full per-connection ring.
        self.overwritten = 0
        #: Whole connections dropped by the LRU cap.
        self.evicted_connections = 0

    def record(self, span: PacketSpan) -> None:
        key = span.four_tuple
        ring = self._rings.get(key)
        if ring is None:
            ring = deque(maxlen=self.per_connection)
            self._rings[key] = ring
            if len(self._rings) > self.max_connections:
                self._rings.popitem(last=False)
                self.evicted_connections += 1
        else:
            self._rings.move_to_end(key)
        if len(ring) == ring.maxlen:
            self.overwritten += 1
        ring.append(span)
        self.total_recorded += 1

    def spans_for(self, four_tuple: object) -> List[PacketSpan]:
        """Retained spans for one connection, oldest first."""
        return list(self._rings.get(four_tuple, ()))

    def all_spans(self) -> List[PacketSpan]:
        """Every retained span, ordered by span id (creation order)."""
        spans = [s for ring in self._rings.values() for s in ring]
        spans.sort(key=lambda span: span.span_id)
        return spans

    def connection_count(self) -> int:
        return len(self._rings)

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())


class SpanCollector:
    """Builds :class:`PacketSpan` records from the layers' hooks.

    Attach with :meth:`attach` (sets ``algorithm.spans``) or pass as
    the ``spans=`` parameter of :class:`repro.tcpstack.stack.HostStack`
    / :class:`repro.smp.coalesce.BatchCoalescer`; those layers call
    :meth:`open_packet` / :meth:`stage` / :meth:`close_packet`, and
    :meth:`repro.core.base.DemuxAlgorithm._finish_lookup` calls
    :meth:`note_lookup` (``_finish_batch``, :meth:`note_batch`).
    """

    def __init__(
        self,
        *,
        sample_every: int = DEFAULT_SPAN_SAMPLE_EVERY,
        recorder: Optional[FlightRecorder] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = sample_every
        self.recorder = recorder if recorder is not None else FlightRecorder()
        #: Bound to the simulator's virtual clock by the workload
        #: (see ``bind_tracer_clock``); wall-clock runs may leave it
        #: unset and get 0.0 timestamps.
        self.clock = clock
        self._next_id = itertools.count(1)
        # One packet context at a time: _open says a packet is being
        # processed (even an unsampled one, so inner layers don't
        # double-count it); _current is the sampled span, if any.
        self._open = False
        self._owner = ""
        self._current: Optional[PacketSpan] = None
        self._span_observers: List[Callable[[PacketSpan], None]] = []
        self._packet_observers: List[
            Callable[[Sequence[Tuple[Any, Any]]], None]
        ] = []
        self.packets_seen = 0
        self.spans_started = 0
        self.spans_finished = 0
        self.reaps_recorded = 0

    # -- attachment ---------------------------------------------------

    def attach(self, algorithm: object) -> "SpanCollector":
        """Hook this collector onto a demux algorithm; returns self."""
        algorithm.spans = self  # type: ignore[attr-defined]
        return self

    def add_span_observer(
        self, observer: Callable[[PacketSpan], None]
    ) -> None:
        """Call ``observer(span)`` for every *finished* (sampled) span."""
        self._span_observers.append(observer)

    def add_packet_observer(
        self, observer: Callable[[Sequence[Tuple[Any, Any]]], None]
    ) -> None:
        """Call ``observer(packets)`` with *every* packet, a batch at a time.

        ``packets`` is a sequence of ``(four_tuple, kind)`` pairs in
        delivery order: a whole ``lookup_batch`` batch from
        :meth:`note_batch`, a one-packet tuple from :meth:`open_packet`.
        The observer sees a batch before the batch's sampled spans
        finish, so it must not depend on the span observers' state.
        Unsampled: use only for estimators that need adjacency (the
        train-ness detector), and keep the per-packet loop tight.
        """
        self._packet_observers.append(observer)

    def now(self) -> float:
        clock = self.clock
        return clock() if clock is not None else 0.0

    # -- the packet context state machine -----------------------------

    def open_packet(
        self, four_tuple: object, kind: object, owner: str = "packet"
    ) -> Optional[PacketSpan]:
        """Start (or join) the packet context for one inbound packet.

        The first layer to call this per packet owns the context; inner
        layers get the already-open span (possibly ``None`` when the
        packet was not sampled) and must not close it.
        """
        if self._open:
            return self._current
        self._open = True
        self._owner = owner
        self.packets_seen += 1
        observers = self._packet_observers
        if observers:
            packets = ((four_tuple, kind),)
            for observer in observers:
                observer(packets)
        if (self.packets_seen - 1) % self.sample_every:
            self._current = None
            return None
        span = self._current = self._start_span(four_tuple, kind)
        return span

    def stage(self, name: str, **data: Any) -> None:
        """Append a stage to the current span (no-op when unsampled)."""
        span = self._current
        if span is not None:
            self._append_stage(span, name, data)

    def close_packet(self, owner: str = "packet") -> Optional[PacketSpan]:
        """Finish the packet context -- only honoured for its opener."""
        if not self._open or self._owner != owner:
            return None
        span = self._current
        self._open = False
        self._owner = ""
        self._current = None
        if span is not None:
            self._finish_span(span, self.now())
        return span

    def _start_span(self, four_tuple: object, kind: object) -> PacketSpan:
        self.spans_started += 1
        return PacketSpan(
            span_id=next(self._next_id),
            four_tuple=four_tuple,
            kind=_kind_name(kind),
            start=self.now(),
        )

    def _append_stage(
        self, span: PacketSpan, name: str, data: Dict[str, Any]
    ) -> None:
        span.stages.append(SpanStage(name, self.now(), data))
        outcome = _TERMINAL_STAGES.get(name)
        if outcome is not None:
            span.outcome = outcome

    def _finish_span(self, span: PacketSpan, end: float) -> None:
        span.end = end
        self.spans_finished += 1
        self.recorder.record(span)
        for observer in self._span_observers:
            observer(span)

    # -- layer hooks ---------------------------------------------------

    def note_lookup(self, algorithm: str, four_tuple: object,
                    result: object) -> None:
        """Record a demux lookup; the hook ``_finish_lookup`` calls.

        Standalone (no outer layer opened a context -- demux-level
        workloads) this opens and closes a demux-owned context, so the
        sampling counter still advances once per packet.
        """
        if not self._open:
            if four_tuple is None:
                return  # lookup_by_id misses carry no tuple to record
            self.open_packet(four_tuple, result.kind, owner="demux")
        span = self._current
        if span is not None:
            self._lookup_stage(span, algorithm, result)
        self.close_packet("demux")

    def note_batch(
        self,
        algorithm: str,
        packets: Sequence[Tuple[Any, Any]],
        results: Sequence[Any],
        lead: Optional[Callable[[int], Tuple[str, Dict[str, Any]]]] = None,
    ) -> None:
        """Record a batch of demux lookups; the hook ``_finish_batch`` calls.

        The same spans and counters, in the same order, as
        :meth:`note_lookup` per ``(packet, result)``, and every packet
        observer is called once with the whole batch, before the
        sampled spans finish.  The 1-in-N sample points are picked
        inside the batch, so only sampled packets cost more than the
        observers' own loops.  ``lead(i)``, when given, names the stage
        a sampled packet ``i`` records before its lookup (the sharded
        facade's ``steer``).  Under a packet context an outer layer
        opened, each lookup joins it as ``note_lookup`` would (the
        opener already showed the packet to the observers).
        """
        if self._open:
            for position, ((tup, _), result) in enumerate(
                zip(packets, results)
            ):
                if lead is not None and self._current is not None:
                    name, data = lead(position)
                    self._append_stage(self._current, name, data)
                self.note_lookup(algorithm, tup, result)
            return
        for observer in self._packet_observers:
            observer(packets)
        seen = self.packets_seen
        self.packets_seen = seen + len(packets)
        for position in range(-seen % self.sample_every, len(packets),
                              self.sample_every):
            tup, kind = packets[position]
            span = self._start_span(tup, kind)
            if lead is not None:
                name, data = lead(position)
                self._append_stage(span, name, data)
            self._lookup_stage(span, algorithm, results[position])
            self._finish_span(span, self.now())

    def _lookup_stage(
        self, span: PacketSpan, algorithm: str, result: Any
    ) -> None:
        found = result.found
        span.stages.append(SpanStage("lookup", self.now(), {
            "algorithm": algorithm,
            "examined": result.examined,
            "cache_hit": result.cache_hit,
            "found": found,
        }))
        if span.outcome == "open":
            span.outcome = "found" if found else "miss"

    def note_reap(self, four_tuple: object, reason: str) -> PacketSpan:
        """Record a lifecycle eviction as a standalone, unsampled span.

        Reaps are rare and diagnostic gold, so every one is recorded.
        """
        self.reaps_recorded += 1
        return self._standalone_span(
            four_tuple, "reap", {"reason": reason}, "reaped"
        )

    def note_recovery(
        self, shard: int, mode: str, **data: object
    ) -> PacketSpan:
        """Record a shard recovery as a standalone, unsampled span.

        Like reaps, recoveries are rare and diagnostic gold (which
        shard, which ladder rung -- warm/resteer/cold -- MTTR, packets
        dropped), so every one is recorded regardless of sampling.
        """
        return self._standalone_span(
            None, "recover", {"shard": shard, "mode": mode, **data},
            "recovered",
        )

    def _standalone_span(
        self, four_tuple: object, stage: str, data: Dict[str, Any],
        outcome: str,
    ) -> PacketSpan:
        """A one-stage span, stamped with one clock reading."""
        now = self.now()
        span = PacketSpan(
            span_id=next(self._next_id),
            four_tuple=four_tuple,
            kind="",
            start=now,
        )
        span.stages.append(SpanStage(stage, now, data))
        span.outcome = outcome
        self.spans_started += 1
        self._finish_span(span, now)
        return span

    # -- output --------------------------------------------------------

    def to_jsonl(self, path: object) -> int:
        """Dump every retained span to a JSONL file; returns the count."""
        return write_spans_jsonl(self.recorder.all_spans(), path)

    def summary(self) -> str:
        return (
            f"spans: {self.packets_seen} packets seen,"
            f" {self.spans_finished} spans recorded"
            f" (1/{self.sample_every} sampling),"
            f" {self.reaps_recorded} reaps,"
            f" {len(self.recorder)} retained over"
            f" {self.recorder.connection_count()} connections"
        )


def _kind_name(kind: object) -> str:
    """'data' / 'ack' from a PacketKind, or str() of anything else."""
    value = getattr(kind, "value", None)
    return value if isinstance(value, str) else str(kind)


def write_spans_jsonl(
    spans: Iterable[object], path: object
) -> int:
    """Write spans (PacketSpan objects or plain dicts) as JSONL."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            record = span.to_dict() if hasattr(span, "to_dict") else span
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count

