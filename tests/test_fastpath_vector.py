"""The numpy-vectorized batch scan: decision-exact, faster, optional.

``SlotTable.scan_batch`` replaces one ``list.index`` per packet with a
blocked numpy comparison -- but it must be a pure speedup: first-match
index and pinned examined count identical to the scalar scan, and the
whole fast path must keep working (decision-identically) when numpy is
absent.  These tests pin both claims:

* unit equivalence of ``scan_batch`` against a scalar ``scan`` loop on
  randomized tables and query mixes, on both the numpy and fallback
  paths;
* whole-suite equivalence: every committed golden replayed through
  every ``fast-*`` twin's batched path with numpy monkeypatched away
  must still reproduce the committed decisions;
* decision equality at N >= 10^3, where the vectorized scan is meant
  to pay (its speed verdict runs in ``benchmarks/bench_fastpath.py``).
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

import repro.fastpath.tables as tables
from repro.core.pcb import PCB
from repro.fastpath.conformance import (
    churn_ops,
    decision_trace,
    golden_stream,
    mutation_trace,
)
from repro.fastpath.tables import SlotTable
from repro.packet.addresses import FourTuple, IPv4Address

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

numpy_missing = tables._np is None


@pytest.fixture
def no_numpy(monkeypatch):
    """The fast path as it runs on a numpy-less interpreter."""
    monkeypatch.setattr(tables, "_np", None)


def make_table(n: int) -> SlotTable:
    table = SlotTable()
    for index in range(n):
        tup = FourTuple(
            IPv4Address("10.0.0.1"), 1521,
            IPv4Address("10.4.0.0") + index, 40000 + index,
        )
        table.push_front(tup.key_bits(), PCB(tup))
    return table


def query_mix(table: SlotTable, n_queries: int, seed: int) -> list:
    """Hits, misses, and repeats in a deterministic shuffle."""
    rng = random.Random(seed)
    queries = (
        [rng.choice(table.keys) for _ in range(n_queries)]
        if table.keys else []
    )
    queries += [(1 << 95) + index for index in range(max(n_queries // 3, 2))]
    rng.shuffle(queries)
    return queries


class TestScanBatchUnit:
    @pytest.mark.parametrize("n", [0, 1, 5, 16, 100, 1000])
    def test_matches_scalar_scan(self, n):
        table = make_table(n)
        queries = query_mix(table, max(n, 4), seed=n)
        assert table.scan_batch(queries) == [
            table.scan(key) for key in queries
        ]

    @pytest.mark.parametrize("n", [0, 5, 16, 100])
    def test_fallback_matches_scalar_scan(self, no_numpy, n):
        table = make_table(n)
        queries = query_mix(table, max(n, 4), seed=n)
        assert table.scan_batch(queries) == [
            table.scan(key) for key in queries
        ]

    def test_first_match_on_duplicate_keys(self):
        # Decision semantics are *first*-match; build a table with the
        # same key at two positions (possible transiently for MTF-style
        # callers) and check both paths pick the earlier index.
        table = make_table(32)
        dup_key = table.keys[20]
        table.keys[5] = dup_key
        table.pcbs[5] = table.pcbs[20]
        table._version += 1
        results = table.scan_batch([dup_key] * 3)
        assert results == [(5, 6)] * 3
        assert table.scan(dup_key) == (5, 6)

    def test_mirror_tracks_mutations(self):
        table = make_table(40)
        queries = query_mix(table, 40, seed=9)
        before = table.scan_batch(queries)
        removed = table.keys[7]
        table.remove_key(removed)
        table.push_front(
            removed, PCB(FourTuple(
                IPv4Address("10.0.0.1"), 1521,
                IPv4Address("10.5.0.0") + 1, 41000,
            ))
        )
        table.move_to_front(13)
        after = table.scan_batch(queries)
        assert after == [table.scan(key) for key in queries]
        assert before != after  # the mutations moved decisions

    @pytest.mark.skipif(numpy_missing, reason="numpy not installed")
    def test_stale_mirror_rebuilds_only_for_big_groups(self):
        table = make_table(64)
        small = query_mix(table, 4, seed=1)[:tables._REBUILD_MIN_QUERIES - 1]
        big = query_mix(table, 16, seed=2)[:tables._REBUILD_MIN_QUERIES]
        # A small group scans a stale table directly...
        assert table.scan_batch(small) == [table.scan(k) for k in small]
        assert table._mirror_version != table._version
        # ...a big one rebuilds the mirror, which later groups reuse.
        assert table.scan_batch(big) == [table.scan(k) for k in big]
        assert table._mirror_version == table._version
        assert table.scan_batch(small) == [table.scan(k) for k in small]
        table.move_to_front(9)
        assert table._mirror_version != table._version

    def test_examined_counts_match_miss_semantics(self):
        table = make_table(64)
        miss = [(1 << 95) + index for index in range(8)]
        assert table.scan_batch(miss) == [(-1, 64)] * 8


#: Every (golden file, fast spec) cell of the committed suite.
GOLDEN_CELLS = []
for path in sorted(GOLDEN_DIR.glob("*.json")):
    golden = json.loads(path.read_text())
    for spec, decisions in golden["decisions"].items():
        GOLDEN_CELLS.append(pytest.param(
            golden, f"fast-{spec}", decisions, id=f"{path.stem}-fast-{spec}",
        ))


class TestGoldenEquivalenceWithoutNumpy:
    """The whole fastpath golden suite, numpy monkeypatched absent."""

    @pytest.mark.parametrize("golden,spec,decisions", GOLDEN_CELLS)
    def test_batched_decisions_unchanged(self, no_numpy, golden, spec,
                                         decisions):
        if golden.get("mode") == "churn":
            ops = churn_ops(
                golden["churn"]["seed"], steps=golden["churn"]["steps"]
            )
            trace, _ = mutation_trace(spec, ops, use_batch=True)
        else:
            params = golden["stream"]
            stream = golden_stream(
                params["seed"],
                n_users=params["n_users"],
                duration=params["duration"],
            )
            trace = decision_trace(spec, stream, use_batch=True)
        assert trace == decisions


class TestNumpyVsFallbackDirect:
    """numpy path vs fallback path, same spec, same stream."""

    @pytest.mark.skipif(numpy_missing, reason="numpy not installed")
    @pytest.mark.parametrize(
        "spec", ["fast-linear", "fast-bsd", "fast-sequent:h=7",
                 "fast-cuckoo:buckets=2,slots=2"]
    )
    def test_decisions_identical(self, spec, monkeypatch):
        stream = golden_stream(77, n_users=80, duration=20.0)
        with_numpy = decision_trace(spec, stream, use_batch=True)
        monkeypatch.setattr(tables, "_np", None)
        without = decision_trace(spec, stream, use_batch=True)
        assert with_numpy == without


@pytest.mark.skipif(numpy_missing, reason="numpy not installed")
def test_vectorized_scan_matches_list_scan_at_1e3():
    """At N >= 10^3 the numpy scan decides exactly as the list scan.

    Whether it is also faster is a wall-clock verdict, so it lives in
    the bench tier (``benchmarks/bench_fastpath.py``).
    """
    table = make_table(2000)
    queries = query_mix(table, 2000, seed=3)
    expected = [table.scan(key) for key in queries]
    assert table.scan_batch(queries) == expected  # rebuilds the mirror
    assert table._mirror_version == table._version
    assert table.scan_batch(queries) == expected  # reuses it
