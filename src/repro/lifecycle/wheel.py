"""Connection timers over virtual time: a heap of tick-quantized deadlines.

The reaper needs one timer per live connection with three operations:
schedule, cancel, and "hand me everything that has expired".  Each
timer's deadline is rounded up to a whole ``tick`` and pushed on a
binary heap, so :meth:`schedule` and each expiry cost ``O(log n)`` and
:meth:`advance` touches only the timers it fires, however far time
jumps.  Cancelling or rescheduling leaves the old heap entry behind;
:meth:`advance` skips entries that are no longer their key's live
timer, and when stale entries outnumber live ones the heap is rebuilt
from the live timers, so memory stays ``O(live timers)``.

The class keeps the name ``TimerWheel`` from the hierarchical timing
wheel it replaced, so the reaper's ``wheel`` attribute and the
snapshot envelope's ``wheel_tick`` key stay as they were.

This store is *virtual-time*: nothing here reads a real clock.  Time is
whatever the caller says it is (:meth:`advance`), which keeps the
reaper deterministic under :class:`repro.sim.engine.Simulator` and
trivially testable without one.

Guarantees:

* a timer never fires before its deadline;
* it fires on the first :meth:`advance` whose ``floor(now / tick)``
  reaches its deadline tick, ``max(ceil(when / tick), cursor)``, where
  the cursor is the first tick no earlier advance covered (so it is
  late by less than one tick, plus the caller's advance granularity);
* expired keys are returned in deterministic ``(deadline, schedule
  order)`` order, so downstream reaping is reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, Hashable, List, Tuple

__all__ = ["TimerWheel"]

#: (absolute deadline, schedule sequence) of one scheduled timer.
_Timer = Tuple[float, int]


class TimerWheel:
    """Tick-quantized timer store keyed by hashable keys.

    Scheduling an already-scheduled key replaces its deadline (the
    "reschedule" every lazy-touch reaper needs).  ``advance(now)``
    returns every key whose deadline tick has passed; it never invokes
    callbacks -- policy stays with the caller.
    """

    def __init__(self, *, tick: float = 0.1) -> None:
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        self._tick = tick
        #: key -> its live timer.
        self._live: Dict[Hashable, _Timer] = {}
        #: (deadline tick, timer, key); may hold stale entries.
        self._heap: List[Tuple[int, _Timer, Hashable]] = []
        self._seq = itertools.count()
        #: All ticks strictly below the cursor have been processed.
        self._cursor = 0
        self._now = 0.0

    # -- introspection -----------------------------------------------------

    @property
    def tick(self) -> float:
        return self._tick

    @property
    def now(self) -> float:
        """The latest time passed to :meth:`advance`."""
        return self._now

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._live

    def deadline_of(self, key: Hashable) -> float:
        """The scheduled deadline for ``key`` (KeyError if absent)."""
        return self._live[key][0]

    # -- scheduling --------------------------------------------------------

    def schedule(self, key: Hashable, when: float) -> None:
        """(Re)schedule ``key`` to expire at absolute time ``when``."""
        timer = (when, next(self._seq))
        self._live[key] = timer
        deadline_tick = max(math.ceil(when / self._tick), self._cursor)
        heapq.heappush(self._heap, (deadline_tick, timer, key))
        self._compact()

    def cancel(self, key: Hashable) -> bool:
        """Forget ``key``'s timer; True if one was pending."""
        if self._live.pop(key, None) is None:
            return False
        self._compact()
        return True

    def _compact(self) -> None:
        """Rebuild the heap from the live timers once stale entries
        outnumber them."""
        live = self._live
        if len(self._heap) > 2 * len(live):
            self._heap = [
                entry for entry in self._heap if live.get(entry[2]) is entry[1]
            ]
            heapq.heapify(self._heap)

    # -- expiry ------------------------------------------------------------

    def advance(self, now: float) -> List[Hashable]:
        """Move time forward; return keys whose deadlines have passed.

        Pops every entry due by tick ``floor(now / tick)`` inclusive and
        returns the live ones sorted by ``(deadline, schedule order)``.
        """
        if now < self._now:
            raise ValueError(
                f"time went backwards: {now:.6f} < {self._now:.6f}"
            )
        self._now = now
        target = int(now / self._tick)  # last tick to process
        heap = self._heap
        live = self._live
        expired: List[Tuple[_Timer, Hashable]] = []
        while heap and heap[0][0] <= target:
            _, timer, key = heapq.heappop(heap)
            if live.get(key) is timer:
                del live[key]
                expired.append((timer, key))
        self._cursor = max(self._cursor, target + 1)
        self._compact()
        # Schedule sequences are unique, so keys are never compared.
        expired.sort()
        return [key for _, key in expired]
