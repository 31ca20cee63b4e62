"""Crash tolerance for the demultiplexing structures.

The paper's structures are performance-critical *soft state*: losing a
shard loses its PCB list order, its cache slots, and its interned-key
arrays -- exactly the warmth the speedup lives in (Jain's
destination-locality argument).  This package makes that state
recoverable:

* :mod:`repro.recovery.snapshot` -- a versioned, checksummed snapshot
  format capturing any registered algorithm's full decision state,
  with ``restore(snapshot(d))`` decision-identical to ``d`` on all
  subsequent traffic (golden-traced, per-call and batched);
* :mod:`repro.recovery.supervisor` -- :class:`ShardSupervisor`, which
  wraps a :class:`~repro.smp.ShardedDemux`, checkpoints shards
  periodically, and recovers a crashed shard warm (checkpoint + delta
  replay), by re-steering orphans to survivors (sticky steering), or
  by cold rebuild -- reporting MTTR/drop/recovery metrics either way
  through its ``metrics()``;
* :mod:`repro.recovery.drill` -- the ``recovery-drill`` scenario
  runner proving zero post-recovery divergence and quantifying the
  warm-vs-cold examined-cost gap.

Infrastructure *fault models* (seeded shard crashes, stalls, snapshot
corruption) live with the other fault models in
:mod:`repro.faults.infra` and compose with the PR-2 spec grammar.
"""

from .snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    capture_state,
    open_envelope,
    restore_bytes,
    restore_state,
    snapshot_bytes,
    to_envelope,
)
from .supervisor import RecoveryEvent, ShardSupervisor
from .drill import DrillCell, DrillConfig, DrillResult, run_recovery_drill

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "capture_state",
    "open_envelope",
    "restore_bytes",
    "restore_state",
    "snapshot_bytes",
    "to_envelope",
    "RecoveryEvent",
    "ShardSupervisor",
    "DrillCell",
    "DrillConfig",
    "DrillResult",
    "run_recovery_drill",
]
