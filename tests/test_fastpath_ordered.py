"""Sorted chains: ordinal keys keep every head-inserting table ascending.

The list-shaped fast structures intern each connection to an insertion
ordinal that counts down (``OrdinalKeyCache``), and every chain
head-inserts, so a ``SlotTable``'s keys stay ascending and its scan is
one bisection plus one compare.  Live keys are unique, so that scan
must return exactly what ``list.index`` returns.  These tests pin:

* the ordered scan against a ``list.index`` reference -- unit cases,
  N=2,000, and a Hypothesis property over random insert/remove/lookup
  sequences;
* the move-to-front table, which keeps the first-match ``list.index``
  scan because hoisting breaks the order;
* batched ``fast-sequent`` against per-call lookups, at short and long
  chains;
* the ascending invariant itself, after a churn walk, after
  snapshot/restore, and after supervised warm recovery.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from conformance_matrix import ops
from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.fastpath.conformance import churn_ops, churn_tuple, replay, walk_ops
from repro.fastpath.keycache import ABSENT_KEY, OrdinalKeyCache
from repro.fastpath.tables import MTFSlotTable, SlotTable
from repro.recovery import ShardSupervisor, restore_bytes, snapshot_bytes

#: The list-shaped fast structures whose chains stay sorted, plain and
#: sharded.
ORDERED_SPECS = [
    "fast-linear",
    "fast-bsd",
    "fast-sequent:h=7",
    "sharded-fast-sequent:shards=3,h=5",
]


def reference_scan(keys, key):
    """The counting convention over ``list.index`` (first match)."""
    try:
        index = keys.index(key)
    except ValueError:
        return -1, len(keys)
    return index, index + 1


def make_table(n: int) -> SlotTable:
    """``n`` entries pushed as an intern table numbers them: -1, -2, ..."""
    table = SlotTable()
    for ordinal in range(-1, -n - 1, -1):
        table.push_front(ordinal, PCB(churn_tuple(-ordinal)))
    return table


def query_mix(table: SlotTable, n_queries: int, seed: int) -> list:
    """Hits, misses (the absent key, below the head, past the tail),
    and repeats in a deterministic shuffle."""
    rng = random.Random(seed)
    queries = (
        [rng.choice(table.keys) for _ in range(n_queries)]
        if table.keys else []
    )
    queries += [ABSENT_KEY, -len(table.keys) - 1, -(1 << 40), 1 << 40]
    rng.shuffle(queries)
    return queries


def tables_of(algorithm):
    """Every slot table of a fast structure or sharded facade."""
    for shard in getattr(algorithm, "shards", None) or (algorithm,):
        yield from shard._tables


def assert_ascending(algorithm):
    for table in tables_of(algorithm):
        assert all(a < b for a, b in zip(table.keys, table.keys[1:]))


class TestOrderedScan:
    @pytest.mark.parametrize("n", [0, 1, 5, 16, 100, 1000])
    def test_matches_list_index(self, n):
        table = make_table(n)
        for key in query_mix(table, max(n, 4), seed=n):
            assert table.scan(key) == reference_scan(table.keys, key)

    def test_examined_counts_match_miss_semantics(self):
        table = make_table(64)
        for key in (ABSENT_KEY, -65, 5):
            assert table.scan(key) == (-1, 64)

    def test_scan_tracks_mutations(self):
        table = make_table(40)
        queries = query_mix(table, 40, seed=9)
        before = [table.scan(key) for key in queries]
        table.remove_key(table.keys[7])
        table.remove_key(table.keys[-1])
        table.push_front(-41, PCB(churn_tuple(41)))
        after = [table.scan(key) for key in queries]
        assert after == [reference_scan(table.keys, key) for key in queries]
        assert before != after  # the mutations moved decisions

    def test_push_front_rejects_key_not_below_head(self):
        table = make_table(3)
        for key in (-3, -1, ABSENT_KEY):
            with pytest.raises(ValueError):
                table.push_front(key, PCB(churn_tuple(99)))
        assert table.keys == [-3, -2, -1]


# One command of an ordered-table walk: insert a fresh ordinal, remove
# the live entry at a position, or look up a live / removed / never
# issued key.
table_commands = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove", "lookup"]),
        st.integers(min_value=0, max_value=1 << 16),
    ),
    max_size=120,
)


@given(commands=table_commands)
@settings(max_examples=150, deadline=None)
def test_ordered_scan_equals_list_index_under_churn(commands):
    table = SlotTable()
    keys = []  # reference list, head-inserted like the table
    issued = []  # every ordinal ever handed out, live or removed
    for action, arg in commands:
        if action == "insert":
            ordinal = -len(issued) - 1
            issued.append(ordinal)
            table.push_front(ordinal, PCB(churn_tuple(len(issued))))
            keys.insert(0, ordinal)
        elif action == "remove" and keys:
            victim = keys.pop(arg % len(keys))
            assert table.remove_key(victim).four_tuple == churn_tuple(-victim)
        else:
            pool = issued + [ABSENT_KEY, -len(issued) - 1]
            key = pool[arg % len(pool)]
            assert table.scan(key) == reference_scan(keys, key)
        assert table.keys == keys
        assert len(table.pcbs) == len(keys)


class TestMTFSlotTable:
    def test_first_match_on_duplicate_keys(self):
        # MTF scans are first-match; with the same key at two positions
        # the scan must pick the earlier index, as the reference walk.
        table = MTFSlotTable()
        for ordinal in range(-1, -33, -1):
            table.push_front(ordinal, PCB(churn_tuple(-ordinal)))
        dup_key = table.keys[20]
        table.keys[5] = dup_key
        table.pcbs[5] = table.pcbs[20]
        assert table.scan(dup_key) == (5, 6)

    def test_scan_follows_recency_after_move_to_front(self):
        table = MTFSlotTable()
        for ordinal in range(-1, -6, -1):
            table.push_front(ordinal, PCB(churn_tuple(-ordinal)))
        table.move_to_front(3)
        assert table.keys == [-2, -5, -4, -3, -1]
        for key in table.keys + [ABSENT_KEY]:
            assert table.scan(key) == reference_scan(table.keys, key)
        table.remove_key(-4)
        assert table.keys == [-2, -5, -3, -1]


class TestSequentBatchPaths:
    """Batched ``fast-sequent`` decides exactly as per-call lookups, on
    short chains (96 flows over 19) and long ones (over 2); seed-202
    golden stream, 256-packet chunks, stray misses included."""

    @pytest.mark.parametrize("spec", ["fast-sequent:h=19", "fast-sequent:h=2"])
    def test_batched_equals_per_call(self, spec):
        stream = ops("tpca_seed202")
        per_call, _ = replay(make_algorithm(spec), stream)
        batched, _ = replay(make_algorithm(spec), stream, chunk=256, batched=True)
        assert batched == per_call


def test_bisect_scan_matches_list_index_at_2000():
    """At the paper's N >= 10^3 the ordered scan decides exactly as
    ``list.index``; the speed verdict lives in the bench tier
    (``benchmarks/bench_fastpath.py``)."""
    table = make_table(2000)
    for key in query_mix(table, 2000, seed=3):
        assert table.scan(key) == reference_scan(table.keys, key)


class TestChainsStaySorted:
    @pytest.mark.parametrize("spec", ORDERED_SPECS)
    def test_after_churn_walk(self, spec):
        churn = walk_ops(churn_ops(5, steps=1500))
        _, algorithm = replay(make_algorithm(spec), churn)
        assert len(algorithm) > 0
        assert_ascending(algorithm)

    @pytest.mark.parametrize("spec", ORDERED_SPECS)
    def test_after_snapshot_restore(self, spec):
        churn = walk_ops(churn_ops(6, steps=1200))
        _, algorithm = replay(make_algorithm(spec), churn)
        restored = restore_bytes(snapshot_bytes(algorithm))
        assert_ascending(restored)
        assert [pcb.four_tuple for pcb in restored] == [
            pcb.four_tuple for pcb in algorithm
        ]
        # ...and it stays sorted while the churn goes on after a restore.
        _, resumed = replay(
            make_algorithm(spec), churn, chunk=32, batched=True, restore_after=300
        )
        assert_ascending(resumed)

    def test_after_supervised_warm_recovery(self):
        spec = "sharded-fast-sequent:shards=4,h=5"
        supervised = ShardSupervisor(make_algorithm(spec), checkpoint_every=50)
        twin = make_algorithm(spec)
        rng = random.Random(17)
        live = []
        for index in range(120):
            for algorithm in (supervised, twin):
                algorithm.insert(PCB(churn_tuple(index)))
            live.append(churn_tuple(index))
        supervised.checkpoint()
        # Mutations after the checkpoint land in the delta log.
        for index in range(120, 160):
            victim = live.pop(rng.randrange(len(live)))
            for algorithm in (supervised, twin):
                algorithm.remove(victim)
                algorithm.insert(PCB(churn_tuple(index)))
            live.append(churn_tuple(index))
        supervised.crash_shard(1)
        for position in range(400):
            tup = live[rng.randrange(len(live))]
            a = supervised.lookup(tup, PacketKind.DATA)
            b = twin.lookup(tup, PacketKind.DATA)
            assert (a.found, a.examined, a.cache_hit) == (
                b.found, b.examined, b.cache_hit
            ), f"diverged at {position}"
        assert [event.mode for event in supervised.events] == ["warm"]
        assert_ascending(supervised.sharded)


def test_ordinal_cache_numbers_tuples_down_and_never_reuses():
    cache = OrdinalKeyCache(lambda tup: 3)
    first, second = churn_tuple(0), churn_tuple(1)
    assert cache.entry(first) == (-1, 3)
    assert cache.entry(second) == (-2, 3)
    assert cache.probe(churn_tuple(2)) == (ABSENT_KEY, 3)
    assert cache.key_of(churn_tuple(2)) == ABSENT_KEY
    cache.evict(first)
    assert cache.entry(first) == (-3, 3)  # a fresh, smaller ordinal
    assert len(cache) == 2
    assert first in cache and churn_tuple(2) not in cache


def test_position_of_and_membership_after_churn_walk():
    walk = churn_ops(8, steps=1500)
    _, fast = replay(make_algorithm("fast-mtf"), walk_ops(walk))
    _, reference = replay(make_algorithm("mtf"), walk_ops(walk))
    live = [pcb.four_tuple for pcb in reference]
    assert live
    for tup in live:
        assert tup in fast
        assert fast.position_of(tup) == reference.position_of(tup)
    removed = [churn_tuple(op[1]) for op in walk if op[0] == "remove"]
    assert removed
    for tup in removed + [churn_tuple(len(walk) + 1)]:
        assert (tup in fast) == (tup in reference)
        if tup not in reference:
            with pytest.raises(KeyError):
                fast.position_of(tup)
