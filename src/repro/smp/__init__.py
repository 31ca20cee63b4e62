"""Sharded (SMP / receive-side-scaling) demultiplexing.

The paper measures single structures; this package asks what happens
when a symmetric multiprocessor runs one structure per CPU:

* :mod:`~repro.smp.steering` -- RSS-style steering functions (4-tuple
  hash, round-robin, sticky flow director) that pick a shard per
  packet.
* :mod:`~repro.smp.sharded` -- :class:`ShardedDemux`, N instances of
  any registered algorithm behind one ``DemuxAlgorithm`` facade, with
  flow migration for non-flow-stable steering.
* :mod:`~repro.smp.contention` -- the analytic lock/queueing/migration
  cost model that generalizes "PCBs examined" to "memory operations on
  an SMP".
* :mod:`~repro.smp.coalesce` -- interrupt-coalescing batches, sorted
  by connection key to manufacture the packet trains OLTP traffic
  lacks.
* :mod:`~repro.smp.parallel` -- the deterministic process-parallel
  task runner every sweep fans out over.
* :mod:`~repro.smp.sweep` -- the ``smp-sweep`` experiment (shard count
  x steering x batch size) and its artifacts.

Shard-level observability is :meth:`ShardedDemux.metrics`, which a
:class:`repro.obs.MetricsRegistry` publishes.
"""

from .coalesce import BatchCoalescer
from .contention import (
    ContentionModel,
    DEFAULT_CONTENTION,
    ShardCost,
    SMPCostReport,
    build_report,
)
from .parallel import (
    ParallelTaskError,
    RetryLog,
    Task,
    run_tasks,
    task_seed,
)
from .sharded import ShardedDemux
from .steering import (
    HashSteering,
    RoundRobinSteering,
    SteeringFunction,
    StickyFlowSteering,
    available_steerings,
    make_steering,
)
from .sweep import (
    SMPSweepConfig,
    SweepResult,
    run_smp_sweep,
    write_sweep_artifacts,
)

__all__ = [
    "BatchCoalescer",
    "ContentionModel",
    "DEFAULT_CONTENTION",
    "HashSteering",
    "ParallelTaskError",
    "RetryLog",
    "RoundRobinSteering",
    "SMPCostReport",
    "SMPSweepConfig",
    "ShardCost",
    "ShardedDemux",
    "SteeringFunction",
    "StickyFlowSteering",
    "SweepResult",
    "Task",
    "available_steerings",
    "build_report",
    "make_steering",
    "run_smp_sweep",
    "run_tasks",
    "task_seed",
    "write_sweep_artifacts",
]
