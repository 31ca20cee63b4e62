"""Retention: live PCBs against interned fast-path keys.

The pair the leak audit compares, counted duck-typed (no hard
dependency from the lifecycle machinery on :mod:`repro.fastpath`) and
reported as the ``lifecycle_retention`` gauges by :class:`Retention`,
a metrics source (see :meth:`repro.obs.metrics.MetricsRegistry.publish`).
A structure with no intern table (the references) reports only the
live count.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["Retention", "count_interned"]


def count_interned(algorithm) -> Optional[int]:
    """Total interned fast-path entries held by ``algorithm``.

    Duck-typed: sums ``interned_entries`` over the structure itself
    and, for sharded facades, every shard.  Returns ``None`` when
    nothing interns (reference structures) -- "no intern table" and
    "empty intern table" are different answers to a leak audit.
    """
    total: Optional[int] = None
    own = getattr(algorithm, "interned_entries", None)
    if own is not None:
        total = own
    for shard in getattr(algorithm, "shards", ()) or ():
        shard_count = getattr(shard, "interned_entries", None)
        if shard_count is not None:
            total = (total or 0) + shard_count
    return total


class Retention:
    """One structure's leak-audit pair as a metrics source.

    Labelled ``algorithm=name``, the structure's own name by default.
    """

    def __init__(self, algorithm, name: Optional[str] = None) -> None:
        self.algorithm = algorithm
        self.name = name if name is not None else algorithm.name

    def metrics(self) -> List[tuple]:
        labels = {"algorithm": self.name}
        samples = [({**labels, "population": "live_pcbs"}, len(self.algorithm))]
        interned = count_interned(self.algorithm)
        if interned is not None:
            samples.append(({**labels, "population": "interned_keys"}, interned))
        return [(
            "lifecycle_retention", "gauge",
            "live PCBs vs interned fast-path keys (leak-audit pair)",
            samples,
        )]
