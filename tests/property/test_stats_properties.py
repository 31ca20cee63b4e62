"""Batch accumulation equals per-lookup recording.

``DemuxStats.accumulate`` folds a batch of lookup results into the
counters in one pass; ``DemuxStats.record`` takes one ``LookupRecord``
at a time.  Hypothesis drives random result streams, split into random
batches, through both and checks they agree -- counters, derived
values, histogram buckets and even the buckets' insertion order --
also when the accumulated side is merged from parts or rebuilt from a
JSON snapshot midway.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import LookupResult
from repro.core.pcb import PCB
from repro.core.stats import DemuxStats, LookupRecord, PacketKind
from repro.packet.addresses import FourTuple, IPv4Address

_PCB = PCB(FourTuple(IPv4Address("10.0.0.1"), 1521,
                     IPv4Address("10.9.0.1"), 40000))

results_strategy = st.lists(
    st.builds(
        lambda found, examined, hit, kind: LookupResult(
            _PCB if found else None, examined, hit, kind
        ),
        st.booleans(),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
        st.sampled_from(list(PacketKind)),
    ),
    max_size=120,
)


def recorded(results):
    """The reference: one ``record(LookupRecord(...))`` per result."""
    stats = DemuxStats()
    for result in results:
        stats.record(
            LookupRecord(
                examined=result.examined,
                cache_hit=result.cache_hit,
                found=result.found,
                kind=result.kind,
            )
        )
    return stats


def accumulated(results, cuts):
    """``accumulate`` over ``results`` split at ``cuts``."""
    stats = DemuxStats()
    for batch in batches(results, cuts):
        stats.accumulate(batch)
    return stats


def batches(results, cuts):
    edges = sorted({0, len(results), *(c % (len(results) + 1) for c in cuts)})
    return [results[a:b] for a, b in zip(edges, edges[1:])]


def assert_same(left: DemuxStats, right: DemuxStats) -> None:
    assert left.as_dict() == right.as_dict()
    for kind in PacketKind:
        assert list(left.kind(kind).histogram) == list(
            right.kind(kind).histogram
        )


cuts_strategy = st.lists(st.integers(min_value=0, max_value=200), max_size=6)


@settings(max_examples=150, deadline=None)
@given(results=results_strategy, cuts=cuts_strategy)
def test_accumulate_equals_record_loop(results, cuts):
    assert_same(accumulated(results, cuts), recorded(results))


@settings(max_examples=100, deadline=None)
@given(results=results_strategy, cuts=cuts_strategy, split=st.integers(0, 200))
def test_merged_accumulations_equal_record_loop(results, cuts, split):
    split %= len(results) + 1
    merged = accumulated(results[:split], cuts)
    merged.merge(accumulated(results[split:], cuts))
    expected = recorded(results)
    assert merged.as_dict() == expected.as_dict()


@settings(max_examples=100, deadline=None)
@given(results=results_strategy, cuts=cuts_strategy, split=st.integers(0, 200))
def test_accumulate_after_from_dict_equals_record_loop(results, cuts, split):
    split %= len(results) + 1
    snapshot = json.loads(json.dumps(accumulated(results[:split], cuts).as_dict()))
    restored = DemuxStats.from_dict(snapshot)
    for batch in batches(results[split:], cuts):
        restored.accumulate(batch)
    assert restored.as_dict() == recorded(results).as_dict()
