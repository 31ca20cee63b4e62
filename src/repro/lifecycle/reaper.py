"""Connection lifecycle reaping: idle timeout and TIME-WAIT expiry.

A long-running demultiplexer is memory-bounded only if dead
connections *leave*: idle PCBs whose peers silently vanished, and
TIME-WAIT PCBs whose 2*MSL quarantine has elapsed.
:class:`ConnectionReaper` attaches to any
:class:`~repro.core.base.DemuxAlgorithm` through the base class's
lifecycle hooks (``algorithm.lifecycle``), watches every insert,
remove, found-lookup, and send, and evicts expired connections in
O(expired) work per tick.

Design -- *lazy deadlines* over a hierarchical
:class:`~repro.lifecycle.wheel.TimerWheel`:

* a **touch** (found lookup, outbound send) is one dict write of the
  last-activity time -- the hot path never rearranges timers;
* the wheel holds one *check* time per connection.  When a check
  fires, the true deadline ``last_touch + timeout`` is compared to
  now: still in the future means the connection was touched since the
  check was scheduled, so the check is pushed out (a counted
  *spurious wakeup*); otherwise the connection is reaped.

Reaping goes through ``on_reap(pcb, reason)`` when the owner (a
:class:`~repro.tcpstack.stack.HostStack`) wants protocol-correct
teardown, or straight through ``algorithm.remove`` otherwise -- which
also evicts the fast path's interned key via the normal remove path,
so the intern table shrinks with the population.

The reaper never reads a real clock.  ``advance(now)`` (or the owning
stack's periodic tick) supplies virtual time, keeping every run
deterministic and replayable.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional

from ..core.base import DemuxAlgorithm
from ..core.pcb import PCB
from ..packet.addresses import FourTuple
from .metrics import Retention
from .wheel import TimerWheel

__all__ = ["ConnectionReaper", "ReapStats", "TIME_WAIT_STATE"]

#: The PCB state string that selects the TIME-WAIT timeout.
TIME_WAIT_STATE = "TIME_WAIT"


@dataclasses.dataclass
class ReapStats:
    """Lifecycle bookkeeping, reported by :meth:`ConnectionReaper.metrics`."""

    #: Connections evicted for inactivity.
    reaped_idle: int = 0
    #: Connections evicted after their TIME-WAIT quarantine.
    reaped_time_wait: int = 0
    #: Wheel checks that found the connection touched since scheduling
    #: (the price of lazy deadlines; each reschedules one timer).
    spurious_wakeups: int = 0
    #: Timers (re)armed on the wheel.
    timers_scheduled: int = 0
    #: Timers cancelled by connection removal.
    timers_cancelled: int = 0

    @property
    def reaped_total(self) -> int:
        return self.reaped_idle + self.reaped_time_wait

    def as_dict(self) -> Dict[str, int]:
        return {
            "reaped_idle": self.reaped_idle,
            "reaped_time_wait": self.reaped_time_wait,
            "reaped_total": self.reaped_total,
            "spurious_wakeups": self.spurious_wakeups,
            "timers_scheduled": self.timers_scheduled,
            "timers_cancelled": self.timers_cancelled,
        }


class ConnectionReaper:
    """Idle/TIME-WAIT eviction driver for one demux structure.

    Parameters
    ----------
    algorithm:
        The structure to manage.  The reaper installs itself as
        ``algorithm.lifecycle`` (detach with :meth:`detach`).
    idle_timeout:
        Seconds of inactivity after which a connection is reaped, or
        ``None`` to reap only TIME-WAIT connections.
    time_wait:
        Seconds a TIME-WAIT connection lingers before eviction, or
        ``None`` to treat TIME-WAIT like any idle connection.
    on_reap:
        Optional ``callback(pcb, reason)`` -- ``reason`` is ``"idle"``
        or ``"time-wait"`` -- that owns the eviction (e.g. aborting a
        TCP endpoint so the removal happens via protocol teardown).
        The callback must cause the PCB's removal; if it does not, the
        reaper removes the PCB directly as a backstop.  ``None`` means
        plain ``algorithm.remove``.
    wheel:
        The timer wheel to use (default: a fresh one whose tick is
        1/8 of the shortest configured timeout, clamped to [0.01, 1]).
    clock:
        Optional zero-argument callable returning current virtual time
        (e.g. ``lambda: sim.now``), so touches between :meth:`advance`
        calls are stamped precisely.  Without it, time only moves when
        :meth:`advance` is called.
    """

    def __init__(
        self,
        algorithm: DemuxAlgorithm,
        *,
        idle_timeout: Optional[float] = None,
        time_wait: Optional[float] = None,
        on_reap: Optional[Callable[[PCB, str], None]] = None,
        wheel: Optional[TimerWheel] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if idle_timeout is None and time_wait is None:
            raise ValueError("need idle_timeout and/or time_wait")
        for label, value in (("idle_timeout", idle_timeout),
                             ("time_wait", time_wait)):
            if value is not None and value <= 0:
                raise ValueError(f"{label} must be positive, got {value}")
        self.algorithm = algorithm
        self.idle_timeout = idle_timeout
        self.time_wait = time_wait
        self.on_reap = on_reap
        if wheel is None:
            shortest = min(
                value for value in (idle_timeout, time_wait)
                if value is not None
            )
            wheel = TimerWheel(tick=min(max(shortest / 8.0, 0.01), 1.0))
        self.wheel = wheel
        self.stats = ReapStats()
        self._clock = clock
        self._pcbs: Dict[FourTuple, PCB] = {}
        self._last_touch: Dict[FourTuple, float] = {}
        self._now = wheel.now if clock is None else clock()
        # Adopt connections inserted before attachment, then hook in.
        for pcb in list(algorithm):
            self.note_insert(pcb)
        algorithm.lifecycle = self

    # -- introspection -----------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time (from the clock, or the last advance)."""
        if self._clock is not None:
            self._now = max(self._now, self._clock())
        return self._now

    @property
    def live(self) -> int:
        """Connections currently tracked."""
        return len(self._pcbs)

    @property
    def handles_time_wait(self) -> bool:
        """True when a dedicated TIME-WAIT timeout is configured."""
        return self.time_wait is not None

    def last_touch(self, tup: FourTuple) -> float:
        """When ``tup`` last saw activity (KeyError if untracked)."""
        return self._last_touch[tup]

    def metrics(self) -> List[tuple]:
        """``lifecycle_reaper`` gauges (stats, live connections, pending
        timers) plus the structure's ``lifecycle_retention`` pair."""
        labels = {"algorithm": self.algorithm.name}
        counters = dict(
            self.stats.as_dict(),
            live_connections=self.live,
            pending_timers=len(self.wheel),
        )
        return [(
            "lifecycle_reaper", "gauge",
            "connection reaping: evictions, wakeups, timer traffic",
            [({**labels, "counter": name}, value)
             for name, value in counters.items()],
        )] + Retention(self.algorithm).metrics()

    def detach(self) -> None:
        """Stop observing the algorithm (timers stay until re-attach)."""
        if self.algorithm.lifecycle is self:
            self.algorithm.lifecycle = None

    # -- lifecycle hooks (called by DemuxAlgorithm template methods) -------

    def note_insert(self, pcb: PCB) -> None:
        tup = pcb.four_tuple
        now = self.now
        self._pcbs[tup] = pcb
        self._last_touch[tup] = now
        timeout = self._timeout_for(pcb)
        if timeout is not None:
            self.wheel.schedule(tup, now + timeout)
            self.stats.timers_scheduled += 1

    def note_remove(self, tup: FourTuple) -> None:
        self._pcbs.pop(tup, None)
        self._last_touch.pop(tup, None)
        if self.wheel.cancel(tup):
            self.stats.timers_cancelled += 1

    def note_touch(self, tup: FourTuple) -> None:
        """O(1) activity mark; the wheel is *not* rearranged."""
        if tup in self._last_touch:
            self._last_touch[tup] = self.now

    def note_touches(self, tuples: Iterable[FourTuple]) -> None:
        """:meth:`note_touch` for a batch, at the batch's virtual time."""
        last_touch = self._last_touch
        now = self.now
        for tup in tuples:
            if tup in last_touch:
                last_touch[tup] = now

    def note_state(self, pcb: PCB) -> None:
        """A tracked connection changed TCP state (e.g. to TIME-WAIT).

        Re-arms the check timer eagerly, because a state change can
        *shorten* the deadline (TIME-WAIT is typically much shorter
        than the idle timeout) and lazy deadlines only ever extend.
        """
        tup = pcb.four_tuple
        if tup not in self._pcbs:
            return
        now = self.now
        self._last_touch[tup] = now
        timeout = self._timeout_for(pcb)
        if timeout is not None:
            self.wheel.schedule(tup, now + timeout)
            self.stats.timers_scheduled += 1

    # -- expiry ------------------------------------------------------------

    def advance(self, now: float) -> int:
        """Move virtual time forward; reap what expired.  Returns the
        number of connections evicted by this call."""
        self._now = max(self._now, now)
        reaped = 0
        for tup in self.wheel.advance(self._now):
            pcb = self._pcbs.get(tup)
            if pcb is None:
                continue  # removed after its keys were collected
            timeout = self._timeout_for(pcb)
            if timeout is None:
                continue  # state no longer subject to a timeout
            deadline = self._last_touch[tup] + timeout
            if deadline > self._now:
                # Touched since the check was armed: push it out.
                self.wheel.schedule(tup, deadline)
                self.stats.timers_scheduled += 1
                self.stats.spurious_wakeups += 1
                continue
            self._reap(tup, pcb)
            reaped += 1
        return reaped

    def _timeout_for(self, pcb: PCB) -> Optional[float]:
        if (
            self.time_wait is not None
            and getattr(pcb, "state", None) == TIME_WAIT_STATE
        ):
            return self.time_wait
        return self.idle_timeout

    def _reap(self, tup: FourTuple, pcb: PCB) -> None:
        reason = (
            "time-wait"
            if getattr(pcb, "state", None) == TIME_WAIT_STATE
            else "idle"
        )
        if reason == "time-wait":
            self.stats.reaped_time_wait += 1
        else:
            self.stats.reaped_idle += 1
        if self.on_reap is not None:
            self.on_reap(pcb, reason)
            if tup not in self._pcbs:
                return  # the callback tore the connection down
        # Direct eviction (no callback, or the callback declined):
        # removal flows through the public template method, firing
        # note_remove and the fast path's intern eviction.
        try:
            self.algorithm.remove(tup)
        except KeyError:
            self.note_remove(tup)  # already gone; drop our bookkeeping
