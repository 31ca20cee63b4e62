"""Connection lifecycle management: timer wheel + reaping.

The fast path (PR 4) made lookups cheap; this package makes long-
running operation *memory-bounded* by evicting dead connections --
idle-timeout and TIME-WAIT reaping over a virtual-time hierarchical
timer wheel, attached to any demux structure through the
``DemuxAlgorithm.lifecycle`` hooks.  See docs/lifecycle.md.
"""

from .metrics import Retention, count_interned
from .reaper import ConnectionReaper, ReapStats, TIME_WAIT_STATE
from .wheel import TimerWheel

__all__ = [
    "ConnectionReaper",
    "ReapStats",
    "Retention",
    "TIME_WAIT_STATE",
    "TimerWheel",
    "count_interned",
]
