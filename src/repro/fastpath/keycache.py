"""Four-tuple key interning for the demux fast path.

The reference structures compare :class:`~repro.packet.addresses.FourTuple`
objects on every probe, which costs a Python-level ``__eq__`` per field,
and the hashed structures additionally run a table-driven CRC over the
packed 96-bit key on every packet.  Both costs are pure interpreter
overhead -- the paper's cost model charges neither (Section 3.5 treats
hash computation as negligible next to PCB memory traffic) -- so the
fast path is free to eliminate them *as long as every algorithmic
decision stays identical*.

:class:`KeyCache` does that elimination:

* each live four-tuple is interned to an **integer key** unique
  among the live tuples, so integer equality is exactly tuple equality
  and slot tables scan C-speed int lists.  :class:`KeyCache` uses the
  packed 96-bit value (:meth:`FourTuple.key_bits`, a bijection);
  :class:`OrdinalKeyCache`, the list-shaped structures' table, numbers
  tuples in insertion order instead, counting down, which keeps every
  head-inserting chain sorted;
* the structure's hash (a deterministic pure function of the tuple)
  is memoized alongside the key, so it runs once per distinct tuple
  instead of once per packet: the chain index for chained structures,
  the key's 64-bit spread for ``fast-cuckoo`` (whose intern table
  overrides :meth:`KeyCache._compute` to derive it from the packed
  key).

Counters land in :class:`FastpathCounters`, which the owning algorithm
exposes as ``fastpath_counters`` and reports through its ``metrics()``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..packet.addresses import FourTuple

__all__ = ["ABSENT_KEY", "FastpathCounters", "KeyCache", "OrdinalKeyCache"]

#: The key :class:`OrdinalKeyCache` reports for a tuple it has not
#: interned.  Ordinals count down from -1, so no table ever holds it.
ABSENT_KEY = 0


@dataclasses.dataclass
class FastpathCounters:
    """Fast-path bookkeeping, separate from the pinned ``DemuxStats``.

    These counters never feed the paper's figure of merit; they exist
    so the observability layer can report how hard the fast-path
    machinery itself is working.
    """

    #: Distinct four-tuples interned (key-cache misses).
    interned_keys: int = 0
    #: Lookups served from the intern table (key-cache hits).
    key_cache_hits: int = 0
    #: Interned entries evicted on connection removal.
    evicted_keys: int = 0
    #: Probes of never-interned tuples whose key was computed on the
    #: fly and *not* stored (miss lookups on absent connections).
    transient_probes: int = 0
    #: ``lookup_batch`` calls.  Every call is served as one batch,
    #: with or without hooks attached (no per-call fallback).
    batch_calls: int = 0
    #: Individual lookups served through ``lookup_batch``.
    batched_lookups: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready snapshot."""
        return {
            "interned_keys": self.interned_keys,
            "key_cache_hits": self.key_cache_hits,
            "evicted_keys": self.evicted_keys,
            "transient_probes": self.transient_probes,
            "batch_calls": self.batch_calls,
            "batched_lookups": self.batched_lookups,
        }


class KeyCache:
    """Intern table: four-tuple -> (96-bit int key, memoized hash).

    The second slot holds the hash the owning structure needs per
    packet.  This class stores ``chain_fn``'s chain assignment
    (``None`` for unchained structures, whose entries all report chain
    0); a subclass may override :meth:`_compute` to memoize a
    different hash, as ``fast-cuckoo`` does with its bucket spread.
    The memo is sound because every such hash is a deterministic,
    unseeded pure function of the tuple that does not change over the
    structure's lifetime (the chain count is fixed; the cuckoo spread
    does not depend on the bucket count).

    Memory-bounds contract: only :meth:`entry` and :meth:`admit` (the
    insert path) may store a memo; :meth:`probe` and
    :meth:`probe_batch` (the lookup path) compute the pair on the fly
    for unknown tuples without storing, and :meth:`release` (the
    remove path) or :meth:`evict` drops the memo when its connection
    is removed.  The owning structure therefore holds exactly one
    interned entry per *live* connection -- heavy insert/remove churn
    and miss-lookup floods cannot grow the table (see
    docs/fastpath.md, "Memory bounds") -- and ``tup in cache`` is its
    membership test.  Because the hash is a pure function of the tuple
    and a key is only ever compared with the keys of other live
    connections, evicting and later re-interning an entry can never
    change a decision.

    Counting: :meth:`entry` and :meth:`admit` count interned keys (and
    hits on tuples already interned), :meth:`probe` and
    :meth:`probe_batch` count hits and transient probes,
    :meth:`release` counts as :meth:`probe` followed by :meth:`evict`,
    and the inspection reads ``in``, :meth:`key_of` and
    :meth:`chain_of` count nothing, so inspecting a structure never
    moves its counters.
    """

    __slots__ = ("_entries", "_chain_fn", "counters")

    def __init__(
        self,
        chain_fn: Optional[Callable[[FourTuple], int]] = None,
        counters: Optional[FastpathCounters] = None,
    ):
        self._entries: Dict[FourTuple, Tuple[int, int]] = {}
        self._chain_fn = chain_fn
        self.counters = counters if counters is not None else FastpathCounters()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tup: FourTuple) -> bool:
        """Whether ``tup`` is interned (uncounted)."""
        return tup in self._entries

    def entry(self, tup: FourTuple) -> Tuple[int, int]:
        """The ``(key, hash)`` pair for ``tup``, interning it.

        The *insert* path: the connection is becoming live, so the
        memo is stored for the packets that will follow.
        """
        entry = self.admit(tup)
        return entry if entry is not None else self._entries[tup]

    def admit(self, tup: FourTuple) -> Optional[Tuple[int, int]]:
        """:meth:`entry` for a connection becoming live.

        Returns ``None`` instead of the pair when ``tup`` is already
        interned -- already live, so the caller's insert is a
        duplicate.  Counts exactly as :meth:`entry`.
        """
        entry = self._entries.get(tup)
        if entry is not None:
            self.counters.key_cache_hits += 1
            return None
        entry = self._intern(tup)
        self._entries[tup] = entry
        self.counters.interned_keys += 1
        return entry

    def probe(self, tup: FourTuple) -> Tuple[int, int]:
        """The ``(key, hash)`` pair for ``tup``, *without* interning.

        The *lookup/remove* path: a tuple that is not already interned
        is either a miss or a teardown, so storing a memo for it would
        leak one entry per stray packet.  Live tuples hit the same
        dict read as :meth:`entry`; unknown ones pay one throwaway key
        computation.
        """
        entry = self._entries.get(tup)
        if entry is None:
            self.counters.transient_probes += 1
            return self._compute(tup)
        self.counters.key_cache_hits += 1
        return entry

    def probe_batch(
        self, packets: Sequence[Tuple[FourTuple, object]]
    ) -> List[Tuple[int, int]]:
        """:meth:`probe` for every ``(tuple, kind)`` packet, in order.

        The batched lookup path: one call per batch, returning the same
        entries and adding the same counter totals as a :meth:`probe`
        loop, with the counters landing once.  Never interns, so a
        batch probed up front sees exactly the table each packet would
        have seen -- lookups do not change the intern table.
        """
        get = self._entries.get
        entries = [get(tup) for tup, _ in packets]
        misses = 0
        if None in entries:
            compute = self._compute
            for position, entry in enumerate(entries):
                if entry is None:
                    entries[position] = compute(packets[position][0])
                    misses += 1
        counters = self.counters
        counters.key_cache_hits += len(entries) - misses
        counters.transient_probes += misses
        return entries

    def release(self, tup: FourTuple) -> Tuple[int, int]:
        """:meth:`probe` and :meth:`evict` in one dict operation.

        The *remove* path: a live tuple's entry is popped and returned
        (counted as a hit and an eviction); an unknown tuple gets the
        computed pair, counted as a transient probe, exactly as
        :meth:`probe` would give it.  Either way the table no longer
        holds ``tup``.
        """
        entry = self._entries.pop(tup, None)
        counters = self.counters
        if entry is None:
            counters.transient_probes += 1
            return self._compute(tup)
        counters.key_cache_hits += 1
        counters.evicted_keys += 1
        return entry

    def evict(self, tup: FourTuple) -> bool:
        """Drop ``tup``'s interned entry (connection removed).

        Returns ``True`` if an entry was present.  Safe to call for
        never-interned tuples (idempotent).
        """
        if self._entries.pop(tup, None) is not None:
            self.counters.evicted_keys += 1
            return True
        return False

    def _intern(self, tup: FourTuple) -> Tuple[int, int]:
        """The pair :meth:`entry` stores for a newly live tuple."""
        return self._compute(tup)

    def _compute(self, tup: FourTuple) -> Tuple[int, int]:
        """The ``(key, hash)`` pair, computed afresh (never stored here)."""
        return (tup.key_bits(), self._chain(tup))

    def _chain(self, tup: FourTuple) -> int:
        return self._chain_fn(tup) if self._chain_fn is not None else 0

    def _peek(self, tup: FourTuple) -> Tuple[int, int]:
        """The ``(key, hash)`` pair, neither interned nor counted."""
        entry = self._entries.get(tup)
        return entry if entry is not None else self._compute(tup)

    def key_of(self, tup: FourTuple) -> int:
        """The integer key for ``tup`` (non-interning, uncounted)."""
        return self._peek(tup)[0]

    def chain_of(self, tup: FourTuple) -> int:
        """The chain index for ``tup`` (0 when unchained; non-interning,
        uncounted)."""
        return self._peek(tup)[1]


class OrdinalKeyCache(KeyCache):
    """Intern table whose keys are insertion ordinals, counting down.

    :meth:`entry` gives each newly interned tuple the next ordinal
    (-1, -2, ...), so a tuple interned later always has a smaller key.
    The list-shaped structures head-insert every new connection, so
    each of their chains stays ascending and is searched by bisection
    (:class:`~repro.fastpath.tables.SlotTable`).  A tuple that is not
    interned has no live connection, so :meth:`probe` and
    :meth:`probe_batch` report :data:`ABSENT_KEY`, which no table
    holds, beside its chain (a miss still walks that chain).  Ordinals
    are never reused; a tuple removed and inserted again gets a fresh,
    smaller one.
    """

    __slots__ = ("_last",)

    def __init__(
        self,
        chain_fn: Optional[Callable[[FourTuple], int]] = None,
        counters: Optional[FastpathCounters] = None,
    ):
        super().__init__(chain_fn, counters)
        self._last = ABSENT_KEY

    def _intern(self, tup: FourTuple) -> Tuple[int, int]:
        self._last -= 1
        return (self._last, self._chain(tup))

    def _compute(self, tup: FourTuple) -> Tuple[int, int]:
        return (ABSENT_KEY, self._chain(tup))
