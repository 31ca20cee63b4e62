"""Fast re-implementations of the hot demux structures.

Each class here is a drop-in :class:`~repro.core.base.DemuxAlgorithm`
that makes *exactly* the decisions of its reference twin in
:mod:`repro.core` -- same PCB found, same examined count, same cache
hits, same statistics, same iteration order -- while replacing the
interpreted four-tuple scans with interned-integer scans over flat
:class:`~repro.fastpath.tables.SlotTable` arrays and memoizing the
chain hash in a :class:`~repro.fastpath.keycache.KeyCache`.

The equivalence is not an aspiration; it is enforced by the golden
conformance suite (``tests/test_fastpath_golden.py``) and the
differential property tests
(``tests/property/test_fastpath_equiv.py``).  The speed win is
quantified by ``benchmarks/bench_fastpath.py`` and gated across PRs by
the ``bench-gate`` CLI subcommand.

Registry names: ``fast-linear``, ``fast-bsd``, ``fast-mtf``,
``fast-sequent``, ``fast-hashed_mtf``, each accepting the same spec
options as its reference (``fast-sequent:h=51,hash=crc16``), and
composing with sharding (``sharded-fast-sequent:shards=8``).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set

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
from .batch import BatchLookupMixin, Packet
from .keycache import FastpathCounters, KeyCache
from .tables import CachedSlot, SlotTable

__all__ = [
    "FastLinearDemux",
    "FastBSDDemux",
    "FastMTFDemux",
    "FastSequentDemux",
    "FastHashedMTFDemux",
    "FastCuckooDemux",
    "FAST_ALGORITHMS",
]


#: Smallest batch :class:`FastSequentDemux` groups by chain.  Grouping
#: pays only through vectorized chain scans, and below about seven
#: packets per chain (at H=19) the plain ``_lookup`` loop is faster.
_GROUP_MIN_BATCH = 128


class _FastDemuxBase(BatchLookupMixin, DemuxAlgorithm):
    """Fast-path plumbing every backend shares: key cache, membership.

    Subclasses add their own storage -- :class:`_FastDemux` the
    list-shaped :class:`~repro.fastpath.tables.SlotTable` family,
    :class:`~repro.fastpath.cuckoo.FastCuckooDemux` its bucket arrays
    -- but interning, the membership set, counters, and the leak
    contract (interned entries == live connections) live here, as does
    the snapshot machinery's type anchor.
    """

    #: Intern table class; a backend whose memoized hash is a function
    #: of the packed key rather than of the tuple swaps in a subclass.
    _keycache_type = KeyCache

    def __init__(self, chain_fn=None) -> None:
        super().__init__()
        self.fastpath_counters = FastpathCounters()
        self._keycache = self._keycache_type(
            chain_fn, self.fastpath_counters
        )
        self._present: Set[int] = set()

    @property
    def interned_entries(self) -> int:
        """Interned-key count; equals ``len(self)`` by the memory-bounds
        contract (one memo per live connection, none for dead ones)."""
        return len(self._keycache)

    def __len__(self) -> int:
        return len(self._present)

    def __contains__(self, tup: FourTuple) -> bool:
        """Membership without perturbing caches, stats, or counters."""
        return tup.key_bits() in self._present


class _FastDemux(_FastDemuxBase):
    """Shared plumbing of the list-shaped structures: slot tables."""

    def __init__(self, nchains: int = 1, chain_fn=None) -> None:
        super().__init__(chain_fn)
        self._tables = [SlotTable() for _ in range(nchains)]

    def _insert(self, pcb: PCB) -> None:
        key, chain = self._keycache.entry(pcb.four_tuple)
        if key in self._present:
            raise DuplicateConnectionError(
                f"duplicate connection {pcb.four_tuple}"
            )
        self._tables[chain].push_front(key, pcb)
        self._present.add(key)

    def _remove(self, tup: FourTuple) -> PCB:
        key, chain = self._keycache.probe(tup)
        if key not in self._present:
            raise KeyError(tup)
        pcb = self._tables[chain].remove_key(key)
        self._present.discard(key)
        self._invalidate_cache(chain, key)
        # The connection is gone; its interned entry goes with it, or
        # a churn workload would retain one memo per connection ever
        # seen (the PR 4 leak).
        self._keycache.evict(tup)
        return pcb

    def _invalidate_cache(self, chain: int, key: int) -> None:
        """Hook for cached subclasses (default: no cache to clear)."""

    def __iter__(self) -> Iterator[PCB]:
        for table in self._tables:
            yield from table.pcbs


class FastLinearDemux(_FastDemux):
    """Array-backed twin of :class:`~repro.core.linear.LinearDemux`."""

    name = "fast-linear"

    def __init__(self) -> None:
        super().__init__(nchains=1)

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, _ = self._keycache.probe(tup)
        table = self._tables[0]
        index, examined = table.scan(key)
        pcb = table.pcbs[index] if index >= 0 else None
        return LookupResult(pcb, examined, cache_hit=False, kind=kind)

    def _lookup_batch(
        self, packets: Sequence[Packet]
    ) -> List[LookupResult]:
        # Lookups never mutate this table, so the whole batch resolves
        # against one vectorized scan (decision-identical by the
        # scan_batch contract).
        table = self._tables[0]
        probe = self._keycache.probe
        keys = [probe(tup)[0] for tup, _ in packets]
        scans = table.scan_batch(keys)
        pcbs = table.pcbs
        return [
            LookupResult(
                pcbs[index] if index >= 0 else None,
                examined,
                cache_hit=False,
                kind=kind,
            )
            for (index, examined), (_, kind) in zip(scans, packets)
        ]


class FastBSDDemux(_FastDemux):
    """Array-backed twin of :class:`~repro.core.bsd.BSDDemux`."""

    name = "fast-bsd"

    def __init__(self) -> None:
        super().__init__(nchains=1)
        self._cache = CachedSlot()

    @property
    def cached_pcb(self) -> Optional[PCB]:
        """The PCB currently in the one-entry cache (for inspection)."""
        return self._cache.pcb

    def _invalidate_cache(self, chain: int, key: int) -> None:
        self._cache.invalidate_if(key)

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, _ = self._keycache.probe(tup)
        cache = self._cache
        examined = 0
        if cache.key is not None:
            examined = 1
            if cache.key == key:
                return LookupResult(
                    cache.pcb, examined, cache_hit=True, kind=kind
                )
        table = self._tables[0]
        index, scanned = table.scan(key)
        examined += scanned
        if index >= 0:
            pcb = table.pcbs[index]
            cache.set(key, pcb)
            return LookupResult(pcb, examined, cache_hit=False, kind=kind)
        return LookupResult(None, examined, cache_hit=False, kind=kind)

    def _lookup_batch(
        self, packets: Sequence[Packet]
    ) -> List[LookupResult]:
        # The one-entry cache mutates per lookup but never the table,
        # so scans vectorize up front and the cache logic replays
        # sequentially over the precomputed results.
        table = self._tables[0]
        probe = self._keycache.probe
        keys = [probe(tup)[0] for tup, _ in packets]
        scans = table.scan_batch(keys)
        pcbs = table.pcbs
        cache = self._cache
        results: List[LookupResult] = []
        append = results.append
        for key, (index, scanned), (_, kind) in zip(keys, scans, packets):
            examined = 0
            if cache.key is not None:
                examined = 1
                if cache.key == key:
                    append(
                        LookupResult(
                            cache.pcb, examined, cache_hit=True, kind=kind
                        )
                    )
                    continue
            examined += scanned
            if index >= 0:
                pcb = pcbs[index]
                cache.set(key, pcb)
                append(
                    LookupResult(pcb, examined, cache_hit=False, kind=kind)
                )
            else:
                append(
                    LookupResult(None, examined, cache_hit=False, kind=kind)
                )
        return results


class FastMTFDemux(_FastDemux):
    """Array-backed twin of :class:`~repro.core.mtf.MoveToFrontDemux`."""

    name = "fast-mtf"

    def __init__(self) -> None:
        super().__init__(nchains=1)

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, _ = self._keycache.probe(tup)
        table = self._tables[0]
        index, examined = table.scan(key)
        if index >= 0:
            pcb = table.pcbs[index]
            table.move_to_front(index)
            return LookupResult(pcb, examined, cache_hit=False, kind=kind)
        return LookupResult(None, examined, cache_hit=False, kind=kind)

    def position_of(self, tup: FourTuple) -> int:
        """Current 0-based list position (no stats, no MTF)."""
        key = tup.key_bits()
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
        self._caches: List[CachedSlot] = [
            CachedSlot() for _ in range(nchains)
        ]
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
        super()._insert(pcb)
        if self._overload_threshold is not None:
            chain = self._keycache.chain_of(pcb.four_tuple)
            if len(self._tables[chain]) > self._overload_threshold:
                self.chain_overload_events += 1

    def _invalidate_cache(self, chain: int, key: int) -> None:
        self._caches[chain].invalidate_if(key)

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, chain = self._keycache.probe(tup)
        cache = self._caches[chain]
        examined = 0
        if cache.key is not None:
            examined = 1
            if cache.key == key:
                return LookupResult(
                    cache.pcb, examined, cache_hit=True, kind=kind
                )
        table = self._tables[chain]
        index, scanned = table.scan(key)
        examined += scanned
        if index >= 0:
            pcb = table.pcbs[index]
            cache.set(key, pcb)
            return LookupResult(pcb, examined, cache_hit=False, kind=kind)
        return LookupResult(None, examined, cache_hit=False, kind=kind)

    def _lookup_batch(
        self, packets: Sequence[Packet]
    ) -> List[LookupResult]:
        if len(packets) < _GROUP_MIN_BATCH:
            return super()._lookup_batch(packets)
        # Chains never mutate during lookups; group the batch by chain,
        # vectorize one scan per chain, then replay the per-chain cache
        # logic sequentially in packet order.
        probe = self._keycache.probe
        entries = [probe(tup) for tup, _ in packets]
        by_chain: dict = {}
        for position, (_key, chain) in enumerate(entries):
            by_chain.setdefault(chain, []).append(position)
        scans: List = [None] * len(packets)
        for chain, positions in by_chain.items():
            chain_scans = self._tables[chain].scan_batch(
                [entries[position][0] for position in positions]
            )
            for position, scan in zip(positions, chain_scans):
                scans[position] = scan
        caches = self._caches
        tables = self._tables
        results: List[LookupResult] = []
        append = results.append
        for (key, chain), (index, scanned), (_, kind) in zip(
            entries, scans, packets
        ):
            cache = caches[chain]
            examined = 0
            if cache.key is not None:
                examined = 1
                if cache.key == key:
                    append(
                        LookupResult(
                            cache.pcb, examined, cache_hit=True, kind=kind
                        )
                    )
                    continue
            examined += scanned
            if index >= 0:
                pcb = tables[chain].pcbs[index]
                cache.set(key, pcb)
                append(
                    LookupResult(pcb, examined, cache_hit=False, kind=kind)
                )
            else:
                append(
                    LookupResult(None, examined, cache_hit=False, kind=kind)
                )
        return results

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

    def __init__(
        self,
        nchains: int = DEFAULT_HASH_CHAINS,
        hash_function: HashFunction = default_hash,
        *,
        per_chain_cache: bool = True,
    ):
        super().__init__(nchains, hash_function)
        self._per_chain_cache = per_chain_cache
        self._caches: List[CachedSlot] = [
            CachedSlot() for _ in range(nchains)
        ]

    def _invalidate_cache(self, chain: int, key: int) -> None:
        self._caches[chain].invalidate_if(key)

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, chain = self._keycache.probe(tup)
        examined = 0
        cache = self._caches[chain]
        if self._per_chain_cache and cache.key is not None:
            examined = 1
            if cache.key == key:
                return LookupResult(
                    cache.pcb, examined, cache_hit=True, kind=kind
                )
        table = self._tables[chain]
        index, scanned = table.scan(key)
        examined += scanned
        if index >= 0:
            pcb = table.pcbs[index]
            table.move_to_front(index)
            if self._per_chain_cache:
                cache.set(key, pcb)
            return LookupResult(pcb, examined, cache_hit=False, kind=kind)
        return LookupResult(None, examined, cache_hit=False, kind=kind)

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
