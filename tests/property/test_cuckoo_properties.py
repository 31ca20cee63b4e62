"""Property tier for the O(1) cuckoo backend.

The cuckoo table has no reference twin, so these properties stand in
for the differential contract the other fast structures get for free:

* **dict-oracle lockstep** -- under arbitrary insert/remove/lookup
  churn (duplicates and absent keys included) the table agrees with a
  plain dict on membership, resolved PCB identity, duplicate/absent
  exceptions, and the leak contract (interned == live);
* **kickout-chain termination** -- no insert walk ever exceeds the
  configured ``kick`` bound (``max_kick_chain <= kick``);
* **stash bound** -- the stash never exceeds its configured bound,
  checked after *every* operation, across resizes;
* **resize preservation** -- every live flow survives every resize
  (tiny geometries force many), and the examined bound stays O(1):
  at most ``2 * slots + stash`` full comparisons per lookup.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.base import DuplicateConnectionError
from repro.core.pcb import PCB
from repro.core.stats import PacketKind
from repro.fastpath.cuckoo import FastCuckooDemux
from repro.packet.addresses import FourTuple, IPv4Address

SERVER = IPv4Address("10.0.0.1")

#: (label, factory) -- geometries from pathological to comfortable.
#: The 1-slot table kicks on nearly every insert; the tiny tables
#: resize constantly; the default rarely does either.
GEOMETRIES = [
    ("minimal", lambda: FastCuckooDemux(buckets=2, slots=1, stash=1, kick=2)),
    ("tiny", lambda: FastCuckooDemux(buckets=2, slots=2, stash=2, kick=4)),
    ("small", lambda: FastCuckooDemux(buckets=4, slots=2, stash=3, kick=8)),
    ("default", FastCuckooDemux),
]


def tuple_for(index: int) -> FourTuple:
    return FourTuple(
        SERVER, 1521, IPv4Address("10.9.0.0") + index, 40000 + index
    )


commands = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove", "lookup_data", "lookup_ack"]),
        st.integers(min_value=0, max_value=30),
    ),
    max_size=120,
)


def check_invariants(table, oracle):
    """Structural invariants that must hold after every operation."""
    assert len(table) == len(oracle)
    assert table.stash_occupancy <= table.stash_bound
    assert table.cuckoo_counters.max_kick_chain <= table.max_kicks
    # Leak contract: one interned memo per live connection.
    assert table.interned_entries == len(oracle)
    # Iteration covers exactly the live population, no duplicates.
    seen = [pcb.four_tuple for pcb in table]
    assert len(seen) == len(set(seen)) == len(oracle)
    assert set(seen) == set(oracle)


@pytest.mark.parametrize(
    "label,factory", GEOMETRIES, ids=[label for label, _ in GEOMETRIES]
)
@given(script=commands)
@settings(max_examples=60, deadline=None)
def test_dict_oracle_lockstep(label, factory, script):
    table = factory()
    oracle = {}
    for op, index in script:
        tup = tuple_for(index)
        if op == "insert":
            pcb = PCB(tup)
            if tup in oracle:
                with pytest.raises(DuplicateConnectionError):
                    table.insert(pcb)
            else:
                table.insert(pcb)
                oracle[tup] = pcb
        elif op == "remove":
            if tup in oracle:
                removed = table.remove(tup)
                assert removed is oracle.pop(tup)
            else:
                with pytest.raises(KeyError):
                    table.remove(tup)
        else:
            kind = PacketKind.DATA if op == "lookup_data" else PacketKind.ACK
            result = table.lookup(tup, kind)
            if tup in oracle:
                assert result.pcb is oracle[tup]
                # O(1) bound: every full comparison happens in one of
                # the two home buckets or the stash.
                assert 1 <= result.examined <= (
                    2 * table.bucket_size + table.stash_bound
                )
            else:
                assert result.pcb is None
                assert result.examined <= (
                    2 * table.bucket_size + table.stash_bound
                )
        check_invariants(table, oracle)
    # Every survivor is still resolvable after the storm.
    for tup, pcb in oracle.items():
        assert table.lookup(tup, PacketKind.DATA).pcb is pcb


@given(
    indices=st.lists(
        st.integers(min_value=0, max_value=500),
        min_size=1, max_size=200, unique=True,
    )
)
@settings(max_examples=40, deadline=None)
def test_resize_preserves_every_flow(indices):
    """Mass insert into the smallest geometry: the table must resize
    repeatedly, and no flow may be lost or duplicated on the way."""
    table = FastCuckooDemux(buckets=2, slots=1, stash=1, kick=2)
    pcbs = {}
    for index in indices:
        tup = tuple_for(index)
        pcb = PCB(tup)
        table.insert(pcb)
        pcbs[tup] = pcb
        assert table.stash_occupancy <= table.stash_bound
    assert len(table) == len(pcbs)
    assert table.cuckoo_counters.resizes > 0 or len(pcbs) <= 2
    for tup, pcb in pcbs.items():
        result = table.lookup(tup, PacketKind.DATA)
        assert result.pcb is pcb
        assert result.examined <= 2 * table.bucket_size + table.stash_bound


@given(
    indices=st.lists(
        st.integers(min_value=0, max_value=300),
        min_size=1, max_size=150, unique=True,
    ),
    kick=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=40, deadline=None)
def test_kickout_chains_terminate_within_bound(indices, kick):
    table = FastCuckooDemux(buckets=2, slots=2, stash=2, kick=kick)
    for index in indices:
        table.insert(PCB(tuple_for(index)))
        assert table.cuckoo_counters.max_kick_chain <= kick
    # The counter moved only if a walk actually displaced someone.
    if table.cuckoo_counters.max_kick_chain:
        assert table.cuckoo_counters.kickouts > 0


@given(script=commands)
@settings(max_examples=40, deadline=None)
def test_batched_lookups_match_per_call(script):
    """Interleaved churn, then the same lookups per-call vs batched on
    two identically built tables: decisions must coincide exactly."""
    def build():
        table = FastCuckooDemux(buckets=2, slots=2, stash=2, kick=4)
        live = set()
        for op, index in script:
            tup = tuple_for(index)
            if op == "insert" and tup not in live:
                table.insert(PCB(tup))
                live.add(tup)
            elif op == "remove" and tup in live:
                table.remove(tup)
                live.discard(tup)
        return table

    probes = [
        (tuple_for(index), PacketKind.DATA) for index in range(0, 31, 2)
    ] + [
        (tuple_for(index), PacketKind.ACK) for index in range(1, 31, 2)
    ]
    table = build()
    per_call = [
        (r.found, r.examined, r.cache_hit)
        for tup, kind in probes
        for r in [table.lookup(tup, kind)]
    ]
    batched_table = build()
    batched = [
        (r.found, r.examined, r.cache_hit)
        for r in batched_table.lookup_batch(probes)
    ]
    assert per_call == batched
    # The batch adds its pre-filter and intern counts once, by the same
    # totals as the per-call walk.
    assert (
        batched_table.cuckoo_counters.as_dict()
        == table.cuckoo_counters.as_dict()
    )
    assert intern_counts(batched_table) == intern_counts(table)


def intern_counts(table):
    """The intern counters (batch counters aside: only one side batches)."""
    counters = table.fastpath_counters.as_dict()
    del counters["batch_calls"], counters["batched_lookups"]
    return counters
