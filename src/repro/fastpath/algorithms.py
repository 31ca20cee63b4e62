"""Fast re-implementations of the hot demux structures.

Each class here is a drop-in :class:`~repro.core.base.DemuxAlgorithm`
that makes *exactly* the decisions of its reference twin in
:mod:`repro.core` -- same PCB found, same examined count, same cache
hits, same statistics, same iteration order -- while replacing the
interpreted four-tuple scans with interned-integer scans over flat
:class:`~repro.fastpath.tables.SlotTable` arrays and memoizing the
chain hash in a :class:`~repro.fastpath.keycache.KeyCache`.

The equivalence is not an aspiration; it is enforced by the golden
conformance matrix (``tests/conformance_matrix.py``) and the
differential property tests
(``tests/property/test_fastpath_equiv.py``).  The speed win is
quantified by ``benchmarks/bench_fastpath.py`` and timed against each
change's parent by the repository benchmark (``bench/``).

Registry names: ``fast-linear``, ``fast-bsd``, ``fast-mtf``,
``fast-sequent``, ``fast-hashed_mtf``, each accepting the same spec
options as its reference (``fast-sequent:h=51,hash=crc16``), and
composing with sharding (``sharded-fast-sequent:shards=8``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.base import (
    DemuxAlgorithm,
    DuplicateConnectionError,
    LookupResult,
)
from ..core.pcb import PCB
from ..core.sequent import DEFAULT_HASH_CHAINS
from ..core.stats import PacketKind
from ..hashing.functions import HashFunction, default_hash
from ..packet.addresses import FourTuple
from .keycache import ABSENT_KEY, FastpathCounters, KeyCache, OrdinalKeyCache
from .tables import CachedSlot, MTFSlotTable, SlotTable

#: One inbound packet as the batch API consumes it.
Packet = Tuple[FourTuple, PacketKind]

#: Builds a result in one C call: ``_tuple_new(LookupResult, (pcb,
#: examined, cache_hit, kind))`` (see :class:`LookupResult`).
_tuple_new = tuple.__new__

__all__ = [
    "FastLinearDemux",
    "FastBSDDemux",
    "FastMTFDemux",
    "FastSequentDemux",
    "FastHashedMTFDemux",
    "FastCuckooDemux",
    "FAST_ALGORITHMS",
]


class _FastDemuxBase(DemuxAlgorithm):
    """Fast-path plumbing every backend shares: key cache, population.

    Subclasses add their own storage -- :class:`_FastDemux` the
    list-shaped :class:`~repro.fastpath.tables.SlotTable` family,
    :class:`~repro.fastpath.cuckoo.FastCuckooDemux` its bucket arrays
    -- but interning, counters, and the leak contract (interned entries
    == live connections) live here, as does the snapshot machinery's
    type anchor.  By that contract the intern table is also the
    membership record: a tuple is interned exactly while it is live.
    The population count is kept beside the storage instead, so the
    leak audit compares two independent numbers.
    """

    #: Intern table class; a backend whose keys or memoized hash are
    #: not the plain packed key and chain swaps in a subclass.
    _keycache_type = KeyCache

    def __init__(self, chain_fn=None) -> None:
        super().__init__()
        self.fastpath_counters = FastpathCounters()
        self._keycache = self._keycache_type(
            chain_fn, self.fastpath_counters
        )
        #: Live connections, counted as the storage gains and loses
        #: them (never read off the intern table).
        self._size = 0

    @property
    def interned_entries(self) -> int:
        """Interned-key count; equals ``len(self)`` by the memory-bounds
        contract (one memo per live connection, none for dead ones)."""
        return len(self._keycache)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, tup: FourTuple) -> bool:
        """Membership without perturbing caches, stats, or counters."""
        return tup in self._keycache

    def lookup_batch(self, packets: Sequence[Packet]) -> List[LookupResult]:
        """:meth:`DemuxAlgorithm.lookup_batch`, counting the batches
        served (``fastpath_counters``)."""
        results = super().lookup_batch(packets)
        counters = self.fastpath_counters
        counters.batch_calls += 1
        counters.batched_lookups += len(results)
        return results

    def metrics(self) -> List[tuple]:
        """``demux_*`` plus the ``fastpath_counters`` gauges."""
        return super().metrics() + [(
            "fastpath_counters", "gauge",
            "fast-path key interning and batch amortization",
            [({"algorithm": self.name, "counter": name}, value)
             for name, value in self.fastpath_counters.as_dict().items()],
        )]

    def _admit(self, tup: FourTuple) -> Tuple[int, int]:
        """Intern ``tup`` for an insert; raises on a live duplicate."""
        entry = self._keycache.admit(tup)
        if entry is None:
            raise DuplicateConnectionError(f"duplicate connection {tup}")
        return entry


class _FastDemux(_FastDemuxBase):
    """Shared plumbing of the list-shaped structures: slot tables.

    Keys are insertion ordinals (:class:`OrdinalKeyCache`) and every
    chain head-inserts, so each :class:`SlotTable` stays ascending and
    scans by bisection; the move-to-front structures swap in
    :class:`MTFSlotTable`.  ``cached`` gives every chain a one-entry
    cache.
    """

    _keycache_type = OrdinalKeyCache
    _table_type = SlotTable

    def __init__(
        self, nchains: int = 1, chain_fn=None, cached: bool = False
    ) -> None:
        super().__init__(chain_fn)
        self._tables = [self._table_type() for _ in range(nchains)]
        self._caches: List[CachedSlot] = (
            [CachedSlot() for _ in range(nchains)] if cached else []
        )

    def _insert(self, pcb: PCB) -> None:
        self._insert_chain(pcb)

    def _insert_chain(self, pcb: PCB) -> int:
        """Insert ``pcb`` (see :meth:`insert`); returns its chain index."""
        key, chain = self._admit(pcb.four_tuple)
        self._tables[chain].push_front(key, pcb)
        self._size += 1
        return chain

    def _remove(self, tup: FourTuple) -> PCB:
        # The connection is going; its interned entry goes with it, or
        # a churn workload would retain one memo per connection ever
        # seen (the PR 4 leak).
        key, chain = self._keycache.release(tup)
        if key == ABSENT_KEY:
            raise KeyError(tup)
        pcb = self._tables[chain].remove_key(key)
        self._size -= 1
        if self._caches:
            self._caches[chain].invalidate_if(key)
        return pcb

    def restore_cache(self, chain: int, pcb: PCB) -> None:
        """Re-impose a captured cache slot (snapshot restore hook).

        ``pcb`` must be live: the slot holds its interned key.
        """
        key = self._keycache.key_of(pcb.four_tuple)
        if key == ABSENT_KEY:
            raise ValueError(f"cached {pcb.four_tuple} is not live")
        self._caches[chain].set(key, pcb)

    def _lookup_cached(
        self, packets: Sequence[Packet]
    ) -> List[LookupResult]:
        """The cached structures' :meth:`_lookup`, fused over a batch.

        One pass in packet order -- chain cache probe, bisection scan
        of the sorted chain, cache refill -- with the calls inlined.
        """
        entries = self._keycache.probe_batch(packets)
        tables = self._tables
        caches = self._caches
        bisect = bisect_left
        new = tuple.__new__
        Result = LookupResult
        results: List[LookupResult] = []
        append = results.append
        for (key, chain), (_, kind) in zip(entries, packets):
            cache = caches[chain]
            examined = 0
            if cache.key is not None:
                if cache.key == key:
                    append(new(Result, (cache.pcb, 1, True, kind)))
                    continue
                examined = 1
            table = tables[chain]
            keys = table.keys
            index = bisect(keys, key)
            if index < len(keys) and keys[index] == key:
                pcb = table.pcbs[index]
                cache.key = key
                cache.pcb = pcb
                append(new(Result, (pcb, examined + index + 1, False, kind)))
            else:
                append(new(Result, (None, examined + len(keys), False, kind)))
        return results

    def __iter__(self) -> Iterator[PCB]:
        for table in self._tables:
            yield from table.pcbs


class FastLinearDemux(_FastDemux):
    """Array-backed twin of :class:`~repro.core.linear.LinearDemux`."""

    name = "fast-linear"

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, _ = self._keycache.probe(tup)
        table = self._tables[0]
        index, examined = table.scan(key)
        pcb = table.pcbs[index] if index >= 0 else None
        return _tuple_new(LookupResult, (pcb, examined, False, kind))


class FastBSDDemux(_FastDemux):
    """Array-backed twin of :class:`~repro.core.bsd.BSDDemux`."""

    name = "fast-bsd"

    def __init__(self) -> None:
        super().__init__(cached=True)

    @property
    def cached_pcb(self) -> Optional[PCB]:
        """The PCB currently in the one-entry cache (for inspection)."""
        return self._caches[0].pcb

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, _ = self._keycache.probe(tup)
        cache = self._caches[0]
        examined = 0
        if cache.key is not None:
            examined = 1
            if cache.key == key:
                return _tuple_new(LookupResult, (cache.pcb, examined, True, kind))
        table = self._tables[0]
        index, scanned = table.scan(key)
        examined += scanned
        if index >= 0:
            pcb = table.pcbs[index]
            cache.set(key, pcb)
            return _tuple_new(LookupResult, (pcb, examined, False, kind))
        return _tuple_new(LookupResult, (None, examined, False, kind))

    def _lookup_batch(
        self, packets: Sequence[Packet]
    ) -> List[LookupResult]:
        return self._lookup_cached(packets)


class FastMTFDemux(_FastDemux):
    """Array-backed twin of :class:`~repro.core.mtf.MoveToFrontDemux`."""

    name = "fast-mtf"
    _table_type = MTFSlotTable

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, _ = self._keycache.probe(tup)
        table = self._tables[0]
        index, examined = table.scan(key)
        if index >= 0:
            pcb = table.pcbs[index]
            table.move_to_front(index)
            return _tuple_new(LookupResult, (pcb, examined, False, kind))
        return _tuple_new(LookupResult, (None, examined, False, kind))

    def position_of(self, tup: FourTuple) -> int:
        """Current 0-based list position (no stats, no MTF)."""
        key = self._keycache.key_of(tup)
        try:
            return self._tables[0].keys.index(key)
        except ValueError:
            raise KeyError(tup) from None


class _FastChained(_FastDemux):
    """Shared shape of the hashed structures: H chains + memoized hash."""

    def __init__(self, nchains: int, hash_function: HashFunction) -> None:
        if nchains <= 0:
            raise ValueError(f"nchains must be positive, got {nchains}")
        self._nchains = nchains
        self._hash = hash_function
        super().__init__(
            nchains=nchains,
            chain_fn=lambda tup: hash_function(tup, nchains),
            cached=True,
        )

    @property
    def nchains(self) -> int:
        """H, the number of hash chains."""
        return self._nchains

    def chain_lengths(self) -> Sequence[int]:
        """Current per-chain PCB counts (for balance reporting)."""
        return tuple(len(table) for table in self._tables)

    def chain_of(self, tup: FourTuple) -> int:
        """Which chain ``tup`` hashes to (memoized)."""
        return self._keycache.chain_of(tup)


class FastSequentDemux(_FastChained):
    """Array-backed twin of :class:`~repro.core.sequent.SequentDemux`."""

    name = "fast-sequent"

    def __init__(
        self,
        nchains: int = DEFAULT_HASH_CHAINS,
        hash_function: HashFunction = default_hash,
        *,
        overload_threshold: Optional[int] = None,
    ):
        if overload_threshold is not None and overload_threshold < 1:
            raise ValueError(
                f"overload_threshold must be >= 1, got {overload_threshold}"
            )
        super().__init__(nchains, hash_function)
        self._overload_threshold = overload_threshold
        #: Inserts that left a chain above the threshold.
        self.chain_overload_events = 0

    @property
    def overload_threshold(self) -> Optional[int]:
        return self._overload_threshold

    def overloaded_chains(self) -> Sequence[int]:
        """Indices of chains currently above the overload threshold."""
        if self._overload_threshold is None:
            return ()
        return tuple(
            index
            for index, table in enumerate(self._tables)
            if len(table) > self._overload_threshold
        )

    def _insert(self, pcb: PCB) -> None:
        chain = self._insert_chain(pcb)
        threshold = self._overload_threshold
        if threshold is not None and len(self._tables[chain]) > threshold:
            self.chain_overload_events += 1

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, chain = self._keycache.probe(tup)
        cache = self._caches[chain]
        examined = 0
        if cache.key is not None:
            examined = 1
            if cache.key == key:
                return _tuple_new(LookupResult, (cache.pcb, examined, True, kind))
        table = self._tables[chain]
        index, scanned = table.scan(key)
        examined += scanned
        if index >= 0:
            pcb = table.pcbs[index]
            cache.set(key, pcb)
            return _tuple_new(LookupResult, (pcb, examined, False, kind))
        return _tuple_new(LookupResult, (None, examined, False, kind))

    def _lookup_batch(
        self, packets: Sequence[Packet]
    ) -> List[LookupResult]:
        return self._lookup_cached(packets)

    def describe(self) -> str:
        lengths = self.chain_lengths()
        longest = max(lengths) if lengths else 0
        return (
            f"{self.name} (H={self._nchains}, {len(self)} PCBs,"
            f" longest chain {longest})"
        )


class FastHashedMTFDemux(_FastChained):
    """Array-backed twin of :class:`~repro.core.hashed_mtf.HashedMTFDemux`."""

    name = "fast-hashed_mtf"
    _table_type = MTFSlotTable

    def __init__(
        self,
        nchains: int = DEFAULT_HASH_CHAINS,
        hash_function: HashFunction = default_hash,
        *,
        per_chain_cache: bool = True,
    ):
        super().__init__(nchains, hash_function)
        self._per_chain_cache = per_chain_cache

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, chain = self._keycache.probe(tup)
        examined = 0
        cache = self._caches[chain]
        if self._per_chain_cache and cache.key is not None:
            examined = 1
            if cache.key == key:
                return _tuple_new(LookupResult, (cache.pcb, examined, True, kind))
        table = self._tables[chain]
        index, scanned = table.scan(key)
        examined += scanned
        if index >= 0:
            pcb = table.pcbs[index]
            table.move_to_front(index)
            if self._per_chain_cache:
                cache.set(key, pcb)
            return _tuple_new(LookupResult, (pcb, examined, False, kind))
        return _tuple_new(LookupResult, (None, examined, False, kind))

    def describe(self) -> str:
        cache = "cached" if self._per_chain_cache else "uncached"
        return f"{self.name} (H={self._nchains}, {cache}, {len(self)} PCBs)"


# Imported late: cuckoo.py subclasses _FastDemuxBase from this module,
# so its import must come after the class definitions above.
from .cuckoo import FastCuckooDemux  # noqa: E402

#: Fast structures, keyed by the *reference* registry name they mirror
#: -- except ``cuckoo``, which has no reference twin (the paper has no
#: O(1) structure) and exists only as ``fast-cuckoo``.
FAST_ALGORITHMS = {
    "linear": FastLinearDemux,
    "bsd": FastBSDDemux,
    "mtf": FastMTFDemux,
    "sequent": FastSequentDemux,
    "hashed_mtf": FastHashedMTFDemux,
    "cuckoo": FastCuckooDemux,
}
