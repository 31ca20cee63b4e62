"""The demultiplexing-algorithm interface.

Each algorithm from the paper (and each extension) is a mutable
container of PCBs with one hot operation:

    ``lookup(four_tuple, kind)`` -> :class:`LookupResult`

The result carries the number of PCBs the structure *examined* -- the
paper's figure of merit -- which the base class feeds into a
:class:`~repro.core.stats.DemuxStats` automatically.  It is a named
tuple: the batched fast path builds one per packet, and the paper
counts none of that bookkeeping, so it should cost as little as an
immutable record can.

Counting convention (pinned so simulations match the paper's formulas):

* comparing a four-tuple against one PCB costs one "examined", whether
  that PCB sits in a cache slot or in a list;
* an *empty* cache slot costs nothing (nothing was fetched);
* computing a hash costs nothing (Section 3.5 treats the hash
  computation as negligible next to PCB memory traffic).

Under this convention BSD's expected miss cost is the paper's
``1 + (N+1)/2``, Partridge/Pink's is ``(N+5)/2``, and Sequent's is
``1 + (N/H+1)/2``, exactly as in Sections 3.1-3.4.

Observability hooks (see :mod:`repro.obs` and docs/observability.md):
the public ``lookup``/``lookup_batch``/``insert``/``remove``/
``note_send`` methods are template methods wrapping the subclass
primitives ``_lookup`` / ``_lookup_batch`` / ``_insert`` / ``_remove``
/ ``_note_send``, so statistics recording, event tracing
(``self.tracer``), sampled wall-clock profiling (attached via
``repro.obs.LookupProfiler``), and causal packet spans (``self.spans``,
a :class:`repro.obs.SpanCollector`) live in exactly one place.  With
no tracer, profiler, or span collector attached, each operation pays a
single ``is None`` check -- none of them ever change results,
statistics, or RNG state.  A batch is a unit of bookkeeping too: every
hook has a batch entry that :meth:`DemuxAlgorithm._finish_batch` calls
once per ``lookup_batch``, with the same effect as the per-lookup
entries called packet by packet.

Lifecycle hooks (see :mod:`repro.lifecycle` and docs/lifecycle.md):
``self.lifecycle`` may hold a reaper observing the population --
``note_insert``/``note_remove`` on mutation, ``note_touch`` on found
lookups and outbound sends, ``note_touches`` on a batch's found
lookups.  Like the tracer, it is ``None`` by default and costs one
check per operation; unlike the tracer, it may *remove* connections
(via the public ``remove``), never alter a lookup's decision.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..packet.addresses import FourTuple
from .pcb import PCB
from .stats import DemuxStats, PacketKind

if TYPE_CHECKING:  # obs never imports core; this edge is type-only
    from ..obs.profile import LookupProfiler
    from ..obs.trace import Tracer

__all__ = ["DemuxError", "DuplicateConnectionError", "LookupResult", "DemuxAlgorithm"]


class DemuxError(Exception):
    """Base error for demultiplexing structures."""


class DuplicateConnectionError(DemuxError):
    """Raised when inserting a PCB whose four-tuple is already present."""


class LookupResult(NamedTuple):
    """Outcome of one PCB lookup.

    A named tuple, because the batched fast path builds one per packet
    and a tuple is the cheapest immutable record Python has: the fast
    structures build it positionally, ``LookupResult(pcb, examined,
    False, kind)``, and keyword construction works too.  Fields are
    read-only (assigning one raises ``AttributeError``).  Being a tuple,
    a result also iterates, unpacks, and compares equal to a plain
    tuple of its fields; nothing in the package relies on that.
    """

    #: The PCB found, or ``None`` (no such connection -- e.g. a stray
    #: segment after close, or a SYN that belongs to a listener).
    pcb: Optional[PCB]
    #: PCBs examined, per the module-level counting convention.
    examined: int
    #: Whether a cache slot satisfied the lookup.
    cache_hit: bool
    #: Packet class this lookup served.
    kind: PacketKind

    @property
    def found(self) -> bool:
        return self.pcb is not None


class DemuxAlgorithm(abc.ABC):
    """Abstract PCB container with cost-accounted lookup.

    Subclasses implement ``_lookup``, ``_insert``, ``_remove``,
    iteration, and ``__len__`` (plus ``_note_send`` if the structure
    reacts to outbound packets); the public template methods wrap the
    primitives with statistics recording and observability hooks.
    """

    #: Short machine-readable name (registry key, figure legend).
    name: str = "abstract"

    #: The registry spec string this instance was built from, stamped
    #: by :func:`repro.core.registry.make_algorithm`.  ``None`` for
    #: directly constructed instances.  Checkpoint/restore
    #: (:mod:`repro.recovery`) uses it to rebuild an equivalent
    #: structure before re-imposing the captured decision state.
    spec: Optional[str] = None

    def __init__(self) -> None:
        self.stats = DemuxStats()
        #: Optional :class:`repro.obs.Tracer` receiving per-operation
        #: events.  ``None`` (the default) keeps the hot path bare.
        self.tracer: Optional["Tracer"] = None
        # Set/cleared by LookupProfiler.attach()/detach().
        self._profiler: Optional["LookupProfiler"] = None
        #: Optional :class:`repro.lifecycle.ConnectionReaper` observing
        #: inserts, removes, and activity.  Installed by the reaper's
        #: constructor; ``None`` keeps the hot path bare.
        self.lifecycle = None
        #: Optional :class:`repro.obs.SpanCollector` building causal
        #: per-packet spans.  Installed by ``SpanCollector.attach()``
        #: (or by the stack/SMP layers); ``None`` keeps the hot path
        #: bare -- one ``is None`` check, like every other hook.
        self.spans = None

    # -- public API ------------------------------------------------------

    def lookup(
        self, tup: FourTuple, kind: PacketKind = PacketKind.DATA
    ) -> LookupResult:
        """Find the PCB for an inbound packet's four-tuple.

        ``kind`` distinguishes data packets from pure transport-level
        acknowledgements; the Partridge/Pink structure probes its two
        cache slots in kind-dependent order (paper Section 3.3.3) and
        all algorithms keep kind-separated statistics.
        """
        profiler = self._profiler
        if profiler is None:
            result = self._lookup(tup, kind)
        else:
            result = profiler.call(self._lookup, tup, kind)
        self._finish_lookup(tup, result)
        return result

    def lookup_batch(
        self, packets: Sequence[Tuple[FourTuple, PacketKind]]
    ) -> List[LookupResult]:
        """Look up many ``(four_tuple, kind)`` pairs, in order.

        The batched entry point the interrupt-coalescing path uses
        (:class:`repro.smp.coalesce.BatchCoalescer`, the sharded
        facade, the bench-gate replays).  Results, statistics and hook
        effects equal a loop over :meth:`lookup`, but the bookkeeping
        runs once per batch: the profiler times the whole batch and
        :meth:`_finish_batch` records statistics and feeds every hook.
        Structures resolve the batch in :meth:`_lookup_batch`.
        """
        profiler = self._profiler
        if profiler is None:
            results = self._lookup_batch(packets)
        else:
            results = profiler.call_batch(self._lookup_batch, packets)
        self._finish_batch(packets, results)
        return results

    def note_send(self, pcb: PCB) -> None:
        """Tell the structure a packet was *sent* on ``pcb``.

        Only the Partridge/Pink last-sent/last-received cache reacts;
        the default is a no-op.  Costs nothing: the sender already
        holds the PCB.
        """
        self._note_send(pcb)
        if self.lifecycle is not None:
            self.lifecycle.note_touch(pcb.four_tuple)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit_note_send(self.name, pcb.four_tuple)

    def insert(self, pcb: PCB) -> None:
        """Add a PCB (connection establishment).

        Raises :class:`DuplicateConnectionError` if the four-tuple is
        already present.
        """
        self._insert(pcb)
        if self.lifecycle is not None:
            self.lifecycle.note_insert(pcb)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit_insert(self.name, pcb.four_tuple)

    def remove(self, tup: FourTuple) -> PCB:
        """Remove and return the PCB for ``tup`` (connection teardown).

        Raises ``KeyError`` if absent.  Any cache slot referencing the
        removed PCB must be invalidated -- a dangling cache entry would
        resurrect closed connections.
        """
        pcb = self._remove(tup)
        if self.lifecycle is not None:
            self.lifecycle.note_remove(tup)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit_remove(self.name, tup)
        return pcb

    # -- subclass primitives ---------------------------------------------

    @abc.abstractmethod
    def _insert(self, pcb: PCB) -> None:
        """Subclass insert (see :meth:`insert` for the contract)."""

    @abc.abstractmethod
    def _remove(self, tup: FourTuple) -> PCB:
        """Subclass remove (see :meth:`remove` for the contract)."""

    def _note_send(self, pcb: PCB) -> None:
        """Subclass reaction to an outbound packet (default: none)."""

    @abc.abstractmethod
    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        """Subclass lookup; must fill ``examined`` per the convention."""

    def _lookup_batch(
        self, packets: Sequence[Tuple[FourTuple, PacketKind]]
    ) -> List[LookupResult]:
        """Subclass batch lookup: a loop over :meth:`_lookup` by default.

        Overrides (vectorized scans, per-shard sub-batches) must return
        exactly what the loop returns, side effects included.
        """
        lookup = self._lookup
        return [lookup(tup, kind) for tup, kind in packets]

    def _finish_lookup(
        self, tup: Optional[FourTuple], result: LookupResult
    ) -> None:
        """Record statistics and trace one completed lookup.

        Shared by :meth:`lookup` and alternative cost-accounted entry
        points (e.g. ``ConnectionIdDemux.lookup_by_id``, where ``tup``
        is unknown and passed as ``None``).
        """
        self.stats.accumulate((result,))
        if self.lifecycle is not None and tup is not None and result.found:
            self.lifecycle.note_touch(tup)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit_lookup(self.name, tup, result)
        spans = self.spans
        if spans is not None:
            spans.note_lookup(self.name, tup, result)

    def _finish_batch(
        self,
        packets: Sequence[Tuple[FourTuple, PacketKind]],
        results: Sequence[LookupResult],
    ) -> None:
        """Record statistics and run every hook once for a whole batch.

        The batch twin of :meth:`_finish_lookup`: same statistics, same
        reaper touches, same trace events and spans as calling it for
        each ``(packet, result)`` in order, with one call per hook.
        """
        self.stats.accumulate(results)
        lifecycle = self.lifecycle
        if lifecycle is not None:
            lifecycle.note_touches([
                tup for (tup, _), result in zip(packets, results)
                if result.pcb is not None
            ])
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit_lookups(self.name, packets, results)
        spans = self.spans
        if spans is not None:
            spans.note_batch(
                self.name, packets, results, self._span_lead(packets)
            )

    def _span_lead(
        self, packets: Sequence[Tuple[FourTuple, PacketKind]]
    ) -> Optional[Callable[[int], Tuple[str, Dict[str, object]]]]:
        """Stage a sampled batch span records before its lookup stage.

        ``None`` (the default) or a function of the packet's position
        in ``packets`` returning ``(stage name, data)``; the sharded
        facade uses it to keep its ``steer`` stage.
        """
        return None

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of PCBs currently installed."""

    @abc.abstractmethod
    def __iter__(self) -> Iterator[PCB]:
        """Iterate over installed PCBs in structure order."""

    # -- conveniences ------------------------------------------------------

    def __contains__(self, tup: FourTuple) -> bool:
        """Membership test that does *not* perturb caches or stats."""
        return any(pcb.four_tuple == tup for pcb in self)

    def __bool__(self) -> bool:
        """Always truthy.

        Without this, ``__len__`` would make an *empty* structure falsy
        and ``algorithm or default()`` would silently replace it -- an
        algorithm object is not a container in the caller's mental
        model, even though it holds PCBs.
        """
        return True

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return f"{self.name} ({len(self)} PCBs)"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"
