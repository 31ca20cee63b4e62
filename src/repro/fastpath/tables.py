"""Flat array-backed slot tables for the demux fast path.

The reference structures store PCBs in Python lists and walk them with
an interpreted ``for`` loop comparing four-tuples.  A :class:`SlotTable`
keeps the same *logical* list as two parallel flat arrays -- interned
integer keys and their PCBs.  The list-shaped structures intern each
connection to an *insertion ordinal* that counts down (see
:class:`~repro.fastpath.keycache.OrdinalKeyCache`), and every chain
head-inserts, so a table's keys are always ascending: the scan the
paper prices as "PCBs examined" becomes one C ``bisect`` plus one
compare.  Live keys are unique, so the index found (and therefore the
examined count, the found PCB, and every cache decision derived from
it) is exactly what the reference walk computes.

:class:`MTFSlotTable` is the move-to-front variant: hoisting a found
entry breaks the ordinal order, so it scans with ``list.index``.

:class:`CachedSlot` is the flat-array rendering of the paper's
single-entry caches: one interned key plus one PCB reference, probed
with a single integer comparison.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

from ..core.pcb import PCB

__all__ = ["CachedSlot", "MTFSlotTable", "SlotTable"]


class SlotTable:
    """One logical PCB list as parallel ``keys``/``pcbs`` arrays.

    Invariants: ``keys[i]`` is the interned key of ``pcbs[i]``; both
    arrays mutate together, head-first like the historical BSD list
    (new entries at index 0); and ``keys`` is strictly ascending,
    because every key pushed is below the current head.
    """

    __slots__ = ("keys", "pcbs")

    def __init__(self) -> None:
        self.keys: List[int] = []
        self.pcbs: List[PCB] = []

    def __len__(self) -> int:
        return len(self.keys)

    def scan(self, key: int) -> Tuple[int, int]:
        """Scan for ``key``; returns ``(index, examined)``.

        ``index`` is -1 on a miss; ``examined`` follows the pinned
        counting convention -- position + 1 on a hit, the full table
        length on a miss -- exactly as the reference linear walk.
        """
        keys = self.keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return index, index + 1
        return -1, len(keys)

    def push_front(self, key: int, pcb: PCB) -> None:
        """Insert at the head (historical BSD insert position).

        Raises ``ValueError`` for a key not below the current head,
        which would break the ascending order :meth:`scan` relies on.
        """
        keys = self.keys
        if keys and key >= keys[0]:
            raise ValueError(
                f"key {key} is not below the head key {keys[0]}"
            )
        keys.insert(0, key)
        self.pcbs.insert(0, pcb)

    def remove_key(self, key: int) -> PCB:
        """Remove and return the PCB stored under ``key``.

        Raises ``ValueError`` if absent; callers gate on their intern
        table first, mirroring the reference structures.
        """
        index, _ = self.scan(key)
        if index < 0:
            raise ValueError(f"key {key} is not in the table")
        del self.keys[index]
        pcb = self.pcbs[index]
        del self.pcbs[index]
        return pcb


class MTFSlotTable(SlotTable):
    """A :class:`SlotTable` in recency order (move-to-front heuristic).

    :meth:`move_to_front` hoists found entries, so keys are not sorted
    and the scan is a ``list.index`` over small ints; being first-match,
    it finds what the reference walk finds.
    """

    __slots__ = ()

    def scan(self, key: int) -> Tuple[int, int]:
        try:
            index = self.keys.index(key)
        except ValueError:
            return -1, len(self.keys)
        return index, index + 1

    def push_front(self, key: int, pcb: PCB) -> None:
        self.keys.insert(0, key)
        self.pcbs.insert(0, pcb)

    def move_to_front(self, index: int) -> None:
        """Hoist the entry at ``index`` to the head (MTF heuristic)."""
        if index:
            key = self.keys[index]
            del self.keys[index]
            self.keys.insert(0, key)
            pcb = self.pcbs[index]
            del self.pcbs[index]
            self.pcbs.insert(0, pcb)


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
