"""The demux fast path: same decisions, fewer interpreter cycles.

The reference structures in :mod:`repro.core` are written to mirror the
paper's prose; they pay Python object-graph overhead (four-tuple
``__eq__`` per probe, a CRC per packet, template-method tolls per call)
that swamps the algorithmic differences the paper is about.  This
package re-implements the hot family -- linear, BSD, MTF, Sequent
hashed, hashed-MTF -- on flat array-backed slot tables with interned
integer keys and batched lookups, provably decision-identical to the
references, plus the fast-path-only O(1) cuckoo table for the
million-connection tier:

* :mod:`~repro.fastpath.keycache` -- four-tuple interning (insertion
  ordinals for the list-shaped structures) + chain memo;
* :mod:`~repro.fastpath.tables` -- flat slot tables, sorted by ordinal
  and scanned by bisection, and cache slots;
* :mod:`~repro.fastpath.algorithms` -- the five ``fast-*`` structures;
* :mod:`~repro.fastpath.cuckoo` -- the two-choice cuckoo table with
  per-bucket pre-filters (``fast-cuckoo``, no reference twin);
* :mod:`~repro.fastpath.conformance` -- the one replay driver behind
  golden decision traces;
* :mod:`~repro.fastpath.gate` -- the ``canary`` promotion verdict and
  its best-of-R replay timing.

Every fast structure's ``metrics()`` adds its ``fastpath_counters``
(and ``fast-cuckoo`` its ``cuckoo_table``) to the ``demux_*`` families
a :class:`repro.obs.MetricsRegistry` publishes.

Registry specs: ``fast-sequent:h=51,hash=crc16``,
``sharded-fast-sequent:shards=8,steer=hash``, etc.  See
``docs/fastpath.md``.
"""

from .algorithms import (
    FAST_ALGORITHMS,
    FastBSDDemux,
    FastHashedMTFDemux,
    FastLinearDemux,
    FastMTFDemux,
    FastSequentDemux,
)
from .conformance import golden_stream, replay, stray_tuple, stream_ops
from .cuckoo import CuckooCounters, FastCuckooDemux
from .gate import MAX_SWEEP_USERS, Measurement, measure_replay
from .keycache import FastpathCounters, KeyCache, OrdinalKeyCache
from .tables import CachedSlot, MTFSlotTable, SlotTable

__all__ = [
    "CachedSlot",
    "CuckooCounters",
    "FAST_ALGORITHMS",
    "FastBSDDemux",
    "FastCuckooDemux",
    "FastHashedMTFDemux",
    "FastLinearDemux",
    "FastMTFDemux",
    "FastSequentDemux",
    "FastpathCounters",
    "KeyCache",
    "OrdinalKeyCache",
    "MAX_SWEEP_USERS",
    "MTFSlotTable",
    "Measurement",
    "SlotTable",
    "golden_stream",
    "measure_replay",
    "replay",
    "stray_tuple",
    "stream_ops",
]
