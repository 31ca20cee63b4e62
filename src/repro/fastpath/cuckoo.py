"""A true O(1) demux backend: two-choice cuckoo table with pre-filters.

The chained structures the paper studies -- and their ``fast-`` twins
in :mod:`~repro.fastpath.algorithms` -- all degrade linearly in N/H:
at 10\N{SUPERSCRIPT FIVE}--10\N{SUPERSCRIPT SIX} connections even
``fast-sequent:h=19`` examines thousands of PCBs per packet.
:class:`FastCuckooDemux` bounds the worst case instead, in the style of
*Cuckoo++ Hash Tables* (PAPERS.md):

* **two-choice buckets** -- every key has exactly two candidate
  buckets (derived from an unseeded deterministic mix of its interned
  96-bit key, computed once per live connection and memoized beside
  the key) of ``slots`` entries each, so a lookup touches at most
  ``2 * slots`` slots plus the (tiny, usually empty) stash;
* **per-bucket pre-filter** -- each bucket keeps a counting multiset
  of the fingerprints of keys whose *primary* bucket it is but which
  were displaced into their secondary bucket.  A primary-bucket miss
  whose fingerprint is not in the pre-filter can never be in the
  second bucket, so clean misses and single-bucket hits never touch
  it (Cuckoo++'s trick for miss-heavy demux traffic);
* **bounded-kickout insert with a stash** -- inserts displace
  residents along a deterministic walk of at most ``kick`` steps;
  a walker that exhausts the bound parks in a small stash
  (``stash`` entries) that every lookup checks last;
* **incremental-friendly resize** -- when the stash would overflow or
  occupancy crosses 90%, the table doubles its bucket count and
  re-places every resident in deterministic iteration order.  The
  resize is a pure function of the insertion history, so decision
  traces stay reproducible, and the bucket arrays are rebuilt chunk
  by chunk off a captured item list (no reader-visible intermediate
  state).

Under the paper's pinned counting convention (a full key comparison is
one PCB examined; fingerprint checks, hash computation, and empty
slots cost zero -- Section 3.5 prices hashing as negligible next to
PCB memory traffic) a hit examines at most ``2 * slots + stash`` PCBs
regardless of N, and a pre-filtered miss examines 0.  Fingerprint
collisions can add the odd extra comparison; they are deterministic,
so golden traces pin them too.

Registry spec: ``fast-cuckoo`` (options ``buckets``, ``slots``,
``stash``, ``kick``), composing with sharding as
``sharded-fast-cuckoo:shards=8``.  Decision determinism is enforced by
the golden suite (``tests/test_cuckoo_golden.py``), the dict-oracle
property tier (``tests/property/test_cuckoo_properties.py``), and the
snapshot round-trip tests.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.base import DuplicateConnectionError, LookupResult
from ..core.pcb import PCB
from ..core.stats import PacketKind
from ..packet.addresses import FourTuple
from .algorithms import _FastDemuxBase
from .keycache import KeyCache

__all__ = ["CuckooCounters", "FastCuckooDemux"]

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """The 64-bit finalizer from MurmurHash3 (deterministic, unseeded)."""
    x &= _MASK64
    x = ((x ^ (x >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
    x = ((x ^ (x >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK64
    return x ^ (x >> 33)


def _spread(key: int) -> int:
    """64 well-mixed bits of the interned 96-bit four-tuple key."""
    return _mix64((key & _MASK64) ^ _mix64(key >> 64))


class _SpreadCache(KeyCache):
    """Intern table whose memoized hash is the key's :func:`_spread`.

    The spread is a pure function of the key and independent of the
    bucket count, so one computation per live connection serves every
    lookup, remove and resize that follows.  It is computed from the
    key the intern step has just packed, not from the tuple again.
    """

    __slots__ = ()

    def _compute(self, tup: FourTuple) -> Tuple[int, int]:
        key = tup.key_bits()
        return (key, _spread(key))


@dataclasses.dataclass
class CuckooCounters:
    """Cuckoo bookkeeping, separate from the pinned ``DemuxStats``.

    Like :class:`~repro.fastpath.keycache.FastpathCounters`, these
    never feed the paper's figure of merit; they exist so the
    observability plane can see how hard the table is working
    (kickout pressure, stash traffic, pre-filter effectiveness).
    """

    #: Individual resident displacements during insert walks.
    kickouts: int = 0
    #: Insert walks that displaced at least one resident.
    kickout_chains: int = 0
    #: Longest displacement walk seen (bounded by ``kick`` by design).
    max_kick_chain: int = 0
    #: Walkers parked in the stash after exhausting the kick bound.
    stash_inserts: int = 0
    #: Stash entries re-placed into buckets freed by removals.
    stash_drains: int = 0
    #: Primary-bucket misses where the pre-filter proved the second
    #: bucket could not hold the key (the probe it exists to avoid).
    prefilter_skips: int = 0
    #: Primary-bucket misses that had to probe the second bucket.
    prefilter_passes: int = 0
    #: Table doublings (stash overflow or occupancy > 90%).
    resizes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready snapshot."""
        return {
            "kickouts": self.kickouts,
            "kickout_chains": self.kickout_chains,
            "max_kick_chain": self.max_kick_chain,
            "stash_inserts": self.stash_inserts,
            "stash_drains": self.stash_drains,
            "prefilter_skips": self.prefilter_skips,
            "prefilter_passes": self.prefilter_passes,
            "resizes": self.resizes,
        }


class FastCuckooDemux(_FastDemuxBase):
    """Two-choice cuckoo table with Cuckoo++-style bucket pre-filters."""

    name = "fast-cuckoo"
    _keycache_type = _SpreadCache

    def __init__(
        self,
        buckets: int = 16,
        slots: int = 4,
        stash: int = 8,
        kick: int = 64,
    ) -> None:
        if buckets < 2:
            raise ValueError(f"buckets must be >= 2, got {buckets}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if stash < 1:
            raise ValueError(f"stash must be >= 1, got {stash}")
        if kick < 1:
            raise ValueError(f"kick must be >= 1, got {kick}")
        super().__init__()
        self.cuckoo_counters = CuckooCounters()
        self._bucket_size = slots
        self._stash_bound = stash
        self._max_kicks = kick
        self._initial_buckets = buckets
        self._kick_cursor = 0
        self._alloc(buckets)

    # -- geometry -------------------------------------------------------

    def _alloc(self, nbuckets: int) -> None:
        """Fresh empty arrays at ``nbuckets`` (init, resize, restore)."""
        self._nbuckets = nbuckets
        capacity = nbuckets * self._bucket_size
        self._slot_keys: List[Optional[int]] = [None] * capacity
        self._slot_pcbs: List[Optional[PCB]] = [None] * capacity
        #: Per-slot fingerprints; 0 marks an empty slot (fingerprints
        #: are 1..255, so the sentinel can never collide).
        self._slot_fps: List[int] = [0] * capacity
        #: Per-bucket counting multiset: fingerprint -> number of keys
        #: whose primary bucket is this one but who live in their
        #: secondary bucket.  Invariant re-derivable from the layout.
        self._prefilter: List[Dict[int, int]] = [
            {} for _ in range(nbuckets)
        ]
        self._stash: List[Tuple[int, PCB, int]] = []

    def _geometry(self, key: int) -> Tuple[int, int, int]:
        """``(fingerprint, primary bucket, secondary bucket)`` of a key.

        For keys held without their tuple (kick-walk victims, stash
        drains, resizes); paths that hold the tuple read the spread
        memoized in its intern entry and call :meth:`_split` directly.
        """
        return self._split(_spread(key))

    def _split(self, h: int) -> Tuple[int, int, int]:
        """``(fingerprint, primary bucket, secondary bucket)`` of a spread.

        A pure unseeded function of the key's spread and the current
        bucket count; the secondary bucket is distinct from the primary
        by construction (``nbuckets >= 2`` always).
        """
        fp = (h >> 8) % 255 + 1
        nb = self._nbuckets
        b1 = h % nb
        b2 = (b1 + 1 + (h >> 32) % (nb - 1)) % nb
        return fp, b1, b2

    @property
    def nbuckets(self) -> int:
        """Current bucket count (doubles on resize)."""
        return self._nbuckets

    @property
    def bucket_size(self) -> int:
        """Slots per bucket (fixed for the structure's lifetime)."""
        return self._bucket_size

    @property
    def stash_bound(self) -> int:
        """Maximum stash entries before a resize is forced."""
        return self._stash_bound

    @property
    def max_kicks(self) -> int:
        """Displacement-walk bound per insert."""
        return self._max_kicks

    @property
    def capacity(self) -> int:
        """Total bucket slots (``nbuckets * bucket_size``)."""
        return self._nbuckets * self._bucket_size

    @property
    def load_factor(self) -> float:
        """Live connections over bucket capacity (stash included)."""
        return len(self._present) / self.capacity

    @property
    def stash_occupancy(self) -> int:
        """Entries currently parked in the stash."""
        return len(self._stash)

    def cuckoo_metrics(self) -> Dict[str, float]:
        """Counters plus derived gauges, for the observability plane."""
        data: Dict[str, float] = dict(self.cuckoo_counters.as_dict())
        data["stash_occupancy"] = len(self._stash)
        data["load_factor"] = round(self.load_factor, 4)
        gated = (
            self.cuckoo_counters.prefilter_skips
            + self.cuckoo_counters.prefilter_passes
        )
        data["prefilter_skip_rate"] = (
            round(self.cuckoo_counters.prefilter_skips / gated, 4)
            if gated
            else 0.0
        )
        return data

    def describe(self) -> str:
        return (
            f"{self.name} ({self._nbuckets}x{self._bucket_size} slots,"
            f" {len(self)} PCBs, load {self.load_factor:.2f},"
            f" stash {len(self._stash)}/{self._stash_bound})"
        )

    # -- slot primitives ------------------------------------------------

    def _put(self, index: int, key: int, pcb: PCB, fp: int) -> None:
        self._slot_keys[index] = key
        self._slot_pcbs[index] = pcb
        self._slot_fps[index] = fp

    def _clear(self, index: int) -> None:
        self._slot_keys[index] = None
        self._slot_pcbs[index] = None
        self._slot_fps[index] = 0

    def _free_in(self, bucket: int) -> int:
        """Index of the first empty slot in ``bucket``, or -1."""
        base = bucket * self._bucket_size
        fps = self._slot_fps
        for index in range(base, base + self._bucket_size):
            if fps[index] == 0:
                return index
        return -1

    def _find_in(self, bucket: int, key: int) -> int:
        """Index of ``key`` in ``bucket``, or -1 (no stats touched)."""
        base = bucket * self._bucket_size
        keys = self._slot_keys
        for index in range(base, base + self._bucket_size):
            if keys[index] == key:
                return index
        return -1

    def _prefilter_add(self, bucket: int, fp: int) -> None:
        table = self._prefilter[bucket]
        table[fp] = table.get(fp, 0) + 1

    def _prefilter_remove(self, bucket: int, fp: int) -> None:
        table = self._prefilter[bucket]
        count = table.get(fp, 0) - 1
        if count > 0:
            table[fp] = count
        else:
            table.pop(fp, None)

    # -- the decision paths ---------------------------------------------

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, h = self._keycache.probe(tup)
        fp, b1, b2 = self._split(h)
        keys = self._slot_keys
        fps = self._slot_fps
        slots = self._bucket_size
        examined = 0
        base = b1 * slots
        for index in range(base, base + slots):
            if fps[index] == fp:
                examined += 1
                if keys[index] == key:
                    return LookupResult(
                        self._slot_pcbs[index], examined, False, kind
                    )
        # Primary bucket missed: the pre-filter proves whether the
        # secondary bucket can possibly hold this key.
        if self._prefilter[b1].get(fp):
            self.cuckoo_counters.prefilter_passes += 1
            base = b2 * slots
            for index in range(base, base + slots):
                if fps[index] == fp:
                    examined += 1
                    if keys[index] == key:
                        return LookupResult(
                            self._slot_pcbs[index], examined, False, kind
                        )
        else:
            self.cuckoo_counters.prefilter_skips += 1
        if self._stash:
            for stash_key, stash_pcb, stash_fp in self._stash:
                if stash_fp == fp:
                    examined += 1
                    if stash_key == key:
                        return LookupResult(stash_pcb, examined, False, kind)
        return LookupResult(None, examined, False, kind)

    def _lookup_batch(
        self, packets: Sequence[Tuple[FourTuple, PacketKind]]
    ) -> List[LookupResult]:
        """:meth:`_lookup` for a whole batch, in one fused pass.

        The same walk -- primary bucket, pre-filter, secondary bucket,
        stash -- with :meth:`_split` inlined, the buckets' arrays bound
        once, and the pre-filter counters landing once per batch.
        Lookups never mutate the table, so nothing a packet sees
        depends on its position in the batch.
        """
        entries = self._keycache.probe_batch(packets)
        keys = self._slot_keys
        fps = self._slot_fps
        pcbs = self._slot_pcbs
        prefilter = self._prefilter
        stash = self._stash
        slots = self._bucket_size
        nb = self._nbuckets
        passes = skips = 0
        results: List[LookupResult] = []
        append = results.append
        for (key, h), (_, kind) in zip(entries, packets):
            fp = (h >> 8) % 255 + 1
            b1 = h % nb
            examined = 0
            pcb = None
            base = b1 * slots
            for index in range(base, base + slots):
                if fps[index] == fp:
                    examined += 1
                    if keys[index] == key:
                        pcb = pcbs[index]
                        break
            if pcb is None:
                if prefilter[b1].get(fp):
                    passes += 1
                    base = (b1 + 1 + (h >> 32) % (nb - 1)) % nb * slots
                    for index in range(base, base + slots):
                        if fps[index] == fp:
                            examined += 1
                            if keys[index] == key:
                                pcb = pcbs[index]
                                break
                else:
                    skips += 1
                if pcb is None and stash:
                    for stash_key, stash_pcb, stash_fp in stash:
                        if stash_fp == fp:
                            examined += 1
                            if stash_key == key:
                                pcb = stash_pcb
                                break
            append(LookupResult(pcb, examined, False, kind))
        counters = self.cuckoo_counters
        counters.prefilter_passes += passes
        counters.prefilter_skips += skips
        return results

    def _insert(self, pcb: PCB) -> None:
        key, h = self._keycache.entry(pcb.four_tuple)
        if key in self._present:
            raise DuplicateConnectionError(
                f"duplicate connection {pcb.four_tuple}"
            )
        # Proactive growth: two-choice cuckoo with 4-slot buckets
        # sustains ~95% occupancy, but kickout walks lengthen sharply
        # past 90% -- double before the walk gets pathological.
        if 10 * (len(self._present) + 1) > 9 * self.capacity:
            self._resize(self._nbuckets * 2)
        if not self._place(key, pcb, h):
            self._resize(self._nbuckets * 2)
        self._present.add(key)

    def _remove(self, tup: FourTuple) -> PCB:
        key, h = self._keycache.probe(tup)
        if key not in self._present:
            raise KeyError(tup)
        fp, b1, b2 = self._split(h)
        index = self._find_in(b1, key)
        if index >= 0:
            pcb = self._slot_pcbs[index]
            self._clear(index)
        else:
            index = self._find_in(b2, key)
            if index >= 0:
                pcb = self._slot_pcbs[index]
                self._clear(index)
                self._prefilter_remove(b1, fp)
            else:
                pcb = self._stash_remove(key)
        self._present.discard(key)
        # Same eviction contract as every fast structure: the interned
        # memo dies with the connection (see KeyCache).
        self._keycache.evict(tup)
        self._drain_stash()
        return pcb

    def _stash_remove(self, key: int) -> PCB:
        for position, (stash_key, pcb, _fp) in enumerate(self._stash):
            if stash_key == key:
                del self._stash[position]
                return pcb
        # _present said live, buckets and stash disagree: impossible
        # unless internal state is corrupt.
        raise AssertionError(f"key {key:#x} live but not resident")

    # -- placement ------------------------------------------------------

    def _place(self, key: int, pcb: PCB, h: int) -> bool:
        """Place a key of spread ``h``; ``False`` if it overflowed the
        stash bound.

        The caller resizes on ``False``.  Placement order (primary
        free slot, secondary free slot, bounded kickout walk, stash)
        and the rotating victim cursor are deterministic, so the
        physical layout is a pure function of the insertion history.
        """
        fp, b1, b2 = self._split(h)
        if self._place_free(key, pcb, fp, b1, b2):
            return True
        self._kick_walk(key, pcb, fp, b1)
        return len(self._stash) <= self._stash_bound

    def _place_free(
        self, key: int, pcb: PCB, fp: int, b1: int, b2: int
    ) -> bool:
        index = self._free_in(b1)
        if index >= 0:
            self._put(index, key, pcb, fp)
            return True
        index = self._free_in(b2)
        if index >= 0:
            self._put(index, key, pcb, fp)
            self._prefilter_add(b1, fp)
            return True
        return False

    def _kick_walk(self, key: int, pcb: PCB, fp: int, b1: int) -> None:
        """Displace residents until someone finds a free slot.

        Terminates in at most ``max_kicks`` displacements (satellite
        property: kickout-chain termination); the final walker parks
        in the stash if the bound is exhausted.
        """
        counters = self.cuckoo_counters
        counters.kickout_chains += 1
        slots = self._bucket_size
        cur_key, cur_pcb, cur_fp, cur_b1 = key, pcb, fp, b1
        target = b1
        for depth in range(1, self._max_kicks + 1):
            index = target * slots + self._kick_cursor % slots
            self._kick_cursor += 1
            vic_key = self._slot_keys[index]
            vic_pcb = self._slot_pcbs[index]
            vic_fp = self._slot_fps[index]
            _fp, vic_b1, vic_b2 = self._geometry(vic_key)
            self._put(index, cur_key, cur_pcb, cur_fp)
            if target != cur_b1:
                self._prefilter_add(cur_b1, cur_fp)
            if target != vic_b1:
                self._prefilter_remove(vic_b1, vic_fp)
            counters.kickouts += 1
            cur_key, cur_pcb, cur_fp, cur_b1 = (
                vic_key, vic_pcb, vic_fp, vic_b1,
            )
            target = vic_b2 if target == vic_b1 else vic_b1
            free = self._free_in(target)
            if free >= 0:
                self._put(free, cur_key, cur_pcb, cur_fp)
                if target != cur_b1:
                    self._prefilter_add(cur_b1, cur_fp)
                if depth > counters.max_kick_chain:
                    counters.max_kick_chain = depth
                return
        if self._max_kicks > counters.max_kick_chain:
            counters.max_kick_chain = self._max_kicks
        counters.stash_inserts += 1
        self._stash.append((cur_key, cur_pcb, cur_fp))

    def _drain_stash(self) -> None:
        """Move stash entries into slots a removal just freed.

        One deterministic pass in stash order, free-slot placement
        only (no kickouts on the remove path); entries that still
        don't fit stay stashed in order.
        """
        if not self._stash:
            return
        remaining: List[Tuple[int, PCB, int]] = []
        for stash_key, stash_pcb, stash_fp in self._stash:
            _fp, b1, b2 = self._geometry(stash_key)
            if self._place_free(stash_key, stash_pcb, stash_fp, b1, b2):
                self.cuckoo_counters.stash_drains += 1
            else:
                remaining.append((stash_key, stash_pcb, stash_fp))
        self._stash = remaining

    def _resize(self, nbuckets: int) -> None:
        """Double (and re-place everything) until the population fits.

        Residents are captured in deterministic iteration order and
        re-placed through the normal placement path at the new
        geometry; a rebuild that would itself overflow the stash
        doubles again.  Decision state after a resize is therefore
        still a pure function of the insertion history.
        """
        items: List[Tuple[int, PCB]] = [
            (key, pcb) for key, pcb in self._iter_items()
        ]
        while True:
            self.cuckoo_counters.resizes += 1
            self._alloc(nbuckets)
            fits = True
            for key, pcb in items:
                if not self._place(key, pcb, _spread(key)):
                    fits = False
                    break
            if fits and len(self._stash) <= self._stash_bound:
                return
            nbuckets *= 2

    def _iter_items(self) -> Iterator[Tuple[int, PCB]]:
        """(key, PCB) pairs in deterministic structure order."""
        keys = self._slot_keys
        fps = self._slot_fps
        pcbs = self._slot_pcbs
        for index in range(len(keys)):
            if fps[index]:
                yield keys[index], pcbs[index]
        for key, pcb, _fp in self._stash:
            yield key, pcb

    def __iter__(self) -> Iterator[PCB]:
        """Bucket-major slot order, then stash order (deterministic)."""
        for _key, pcb in self._iter_items():
            yield pcb

    # -- snapshot restore hooks (see repro.recovery.snapshot) -----------

    def restore_slot(self, index: int, pcb: PCB) -> None:
        """Re-impose one captured bucket slot verbatim.

        Kickout history cannot be replayed from an insert stream, so
        restore re-creates the physical layout instead; pre-filters
        are re-derived here (they are a pure function of placement).
        """
        key, h = self._keycache.entry(pcb.four_tuple)
        fp, b1, b2 = self._split(h)
        bucket = index // self._bucket_size
        if bucket not in (b1, b2):
            raise ValueError(
                f"slot {index} is in bucket {bucket}, not a home bucket"
                f" of {pcb.four_tuple}"
            )
        if self._slot_fps[index]:
            raise ValueError(f"slot {index} restored twice")
        self._put(index, key, pcb, fp)
        if bucket != b1:
            self._prefilter_add(b1, fp)
        self._present.add(key)

    def restore_stash(self, pcb: PCB) -> None:
        """Re-impose one captured stash entry (in capture order)."""
        if len(self._stash) >= self._stash_bound:
            raise ValueError(
                f"stash overflows its bound {self._stash_bound} on restore"
            )
        key, h = self._keycache.entry(pcb.four_tuple)
        fp, _b1, _b2 = self._split(h)
        self._stash.append((key, pcb, fp))
        self._present.add(key)
