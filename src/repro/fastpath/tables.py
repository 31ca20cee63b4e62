"""Flat array-backed slot tables for the demux fast path.

The reference structures store PCBs in Python lists and walk them with
an interpreted ``for`` loop comparing four-tuples.  A :class:`SlotTable`
keeps the same *logical* list as two parallel flat arrays -- interned
integer keys and their PCBs -- so the scan that the paper prices as
"PCBs examined" becomes a single C-speed ``list.index`` over small
integers.  Because the interned key is a bijection of the four-tuple,
the index found (and therefore the examined count, the found PCB, and
every cache/move-to-front decision derived from it) is exactly what the
reference scan computes.

:class:`CachedSlot` is the flat-array rendering of the paper's
single-entry caches: one interned key plus one PCB reference, probed
with a single integer comparison.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.pcb import PCB

try:  # numpy is a hard dependency, but the fallback keeps the demux
    import numpy as _np  # alive (and decision-identical) without it.
except ImportError:  # pragma: no cover - exercised via monkeypatch
    _np = None

__all__ = ["CachedSlot", "SlotTable"]

#: The interned key is 96 bits; numpy has no uint96, so the mirror
#: arrays split it into two uint64 halves of 48 bits each (both halves
#: fit with headroom, and equality of both halves is key equality).
_HALF_BITS = 48
_HALF_MASK = (1 << _HALF_BITS) - 1

#: Below this table size ``list.index`` beats the mirror upkeep.
_VECTOR_MIN_TABLE = 16

#: Queries a stale mirror needs before :meth:`SlotTable.scan_batch`
#: rebuilds it.  A rebuild walks every key in Python, about twenty
#: ``list.index`` scans' worth; a group this big repays it within a
#: few batches while the table holds still (a lookup-only replay),
#: and smaller ones -- a churn mix, where the table mutates every few
#: lookups, sends groups of one or two -- scan directly.
_REBUILD_MIN_QUERIES = 8

#: Comparison-matrix budget (query rows x table columns) per block, so
#: a huge batch against a huge table stays cache- and memory-friendly.
_VECTOR_BLOCK = 1 << 22


class SlotTable:
    """One logical PCB list as parallel ``keys``/``pcbs`` arrays.

    Invariant: ``keys[i]`` is always ``pcbs[i].four_tuple.key_bits()``;
    both arrays mutate together, head-first like the historical BSD
    list (new entries at index 0).

    For batched lookups the table lazily maintains a numpy mirror of
    ``keys`` (two uint64 half-key arrays, rebuilt only after a
    mutation), so :meth:`scan_batch` resolves a whole chunk with one
    vectorized comparison instead of one ``list.index`` per packet.
    """

    __slots__ = (
        "keys", "pcbs", "_version", "_mirror_version",
        "_mirror_lo", "_mirror_hi",
    )

    def __init__(self) -> None:
        self.keys: List[int] = []
        self.pcbs: List[PCB] = []
        #: Bumped on every mutation; the numpy mirror notes the version
        #: it was built at and rebuilds only when stale.
        self._version = 0
        self._mirror_version = -1
        self._mirror_lo = None
        self._mirror_hi = None

    def __len__(self) -> int:
        return len(self.keys)

    def scan(self, key: int) -> Tuple[int, int]:
        """Scan for ``key``; returns ``(index, examined)``.

        ``index`` is -1 on a miss; ``examined`` follows the pinned
        counting convention -- position + 1 on a hit, the full table
        length on a miss -- exactly as the reference linear walk.
        """
        try:
            index = self.keys.index(key)
        except ValueError:
            return -1, len(self.keys)
        return index, index + 1

    def scan_batch(
        self, keys: Sequence[int]
    ) -> List[Tuple[int, int]]:
        """Vectorized :meth:`scan` of many keys against one table state.

        Returns one ``(index, examined)`` pair per query key with
        *exactly* the semantics of calling :meth:`scan` in a loop --
        first-match index (or -1) and the pinned examined count -- so
        callers may substitute it freely anywhere the table is not
        mutated between the scans.  Uses the numpy mirror when numpy is
        available, the table is big enough to profit and the mirror is
        fresh -- or the query group is big enough to pay for rebuilding
        it; otherwise (or when numpy is absent) falls back to the loop,
        decision-identically.
        """
        n = len(self.keys)
        min_group = (
            2 if self._mirror_version == self._version
            else _REBUILD_MIN_QUERIES
        )
        if _np is None or n < _VECTOR_MIN_TABLE or len(keys) < min_group:
            return [self.scan(key) for key in keys]
        mirror_lo, mirror_hi = self._mirrors()
        nqueries = len(keys)
        query_lo = _np.fromiter(
            (key & _HALF_MASK for key in keys),
            dtype=_np.uint64, count=nqueries,
        )
        query_hi = _np.fromiter(
            (key >> _HALF_BITS for key in keys),
            dtype=_np.uint64, count=nqueries,
        )
        results: List[Tuple[int, int]] = []
        step = max(1, _VECTOR_BLOCK // n)
        for start in range(0, nqueries, step):
            equal = mirror_lo[None, :] == query_lo[start:start + step, None]
            equal &= mirror_hi[None, :] == query_hi[start:start + step, None]
            found = equal.any(axis=1)
            first = equal.argmax(axis=1)
            for hit, index in zip(found.tolist(), first.tolist()):
                results.append((index, index + 1) if hit else (-1, n))
        return results

    def _mirrors(self):
        """The (lo, hi) uint64 half-key arrays, rebuilt if stale."""
        if self._mirror_version != self._version:
            keys = self.keys
            n = len(keys)
            self._mirror_lo = _np.fromiter(
                (key & _HALF_MASK for key in keys),
                dtype=_np.uint64, count=n,
            )
            self._mirror_hi = _np.fromiter(
                (key >> _HALF_BITS for key in keys),
                dtype=_np.uint64, count=n,
            )
            self._mirror_version = self._version
        return self._mirror_lo, self._mirror_hi

    def push_front(self, key: int, pcb: PCB) -> None:
        """Insert at the head (historical BSD insert position)."""
        self.keys.insert(0, key)
        self.pcbs.insert(0, pcb)
        self._version += 1

    def remove_key(self, key: int) -> PCB:
        """Remove and return the PCB stored under ``key``.

        Raises ``ValueError`` if absent; callers gate on their own
        membership set first, mirroring the reference structures.
        """
        index = self.keys.index(key)
        del self.keys[index]
        pcb = self.pcbs[index]
        del self.pcbs[index]
        self._version += 1
        return pcb

    def move_to_front(self, index: int) -> None:
        """Hoist the entry at ``index`` to the head (MTF heuristic)."""
        if index:
            key = self.keys[index]
            del self.keys[index]
            self.keys.insert(0, key)
            pcb = self.pcbs[index]
            del self.pcbs[index]
            self.pcbs.insert(0, pcb)
            self._version += 1


class CachedSlot:
    """A single-entry cache as an (interned key, PCB) pair.

    ``key`` is ``None`` while the slot is empty -- probing an empty
    slot costs nothing, per the counting convention.
    """

    __slots__ = ("key", "pcb")

    def __init__(self) -> None:
        self.key: Optional[int] = None
        self.pcb: Optional[PCB] = None

    def set(self, key: int, pcb: PCB) -> None:
        self.key = key
        self.pcb = pcb

    def clear(self) -> None:
        self.key = None
        self.pcb = None

    def invalidate_if(self, key: int) -> None:
        """Clear the slot when it caches ``key`` (removal hygiene)."""
        if self.key == key:
            self.clear()
