"""Property-based tests for sharded demultiplexing.

Hypothesis checks the three guarantees the SMP layer stands on:
steering is a pure function of the four-tuple (for flow-stable
policies), shard assignment does not depend on packet arrival order
(for hash steering), and a ShardedDemux is semantically
indistinguishable from the unsharded structure it wraps -- for *every*
steering policy, including round-robin, whose correctness rides on the
flow-migration mechanism.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pcb import PCB
from repro.core.sequent import SequentDemux
from repro.core.stats import PacketKind
from repro.packet.addresses import FourTuple, IPv4Address
from repro.smp import (
    HashSteering,
    RoundRobinSteering,
    ShardedDemux,
    StickyFlowSteering,
)

SERVER = IPv4Address("10.0.0.1")


def tuple_for(index: int) -> FourTuple:
    return FourTuple(SERVER, 1521, IPv4Address("10.7.0.0") + index, 40000 + index)


tuple_indices = st.integers(min_value=0, max_value=500)
shard_counts = st.integers(min_value=1, max_value=16)


@given(tuple_indices, shard_counts)
@settings(max_examples=200, deadline=None)
def test_hash_steering_deterministic_per_tuple(index, nshards):
    """Same four-tuple, same shard -- across calls and fresh instances
    (the cross-process guarantee: no per-process hash seeding)."""
    tup = tuple_for(index)
    first = HashSteering().shard_of(tup, nshards)
    again = HashSteering().shard_of(tup, nshards)
    assert first == again
    assert 0 <= first < nshards


@given(
    st.lists(tuple_indices, min_size=1, max_size=40, unique=True),
    shard_counts,
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_hash_assignment_stable_under_reordering(indices, nshards, rng):
    """Arrival order never changes which shard a flow hashes to."""
    steer = HashSteering()
    in_order = {i: steer.shard_of(tuple_for(i), nshards) for i in indices}
    shuffled = list(indices)
    rng.shuffle(shuffled)
    reordered = {i: steer.shard_of(tuple_for(i), nshards) for i in shuffled}
    assert in_order == reordered


@given(
    st.lists(tuple_indices, min_size=1, max_size=40, unique=True),
    shard_counts,
)
@settings(max_examples=100, deadline=None)
def test_sticky_pins_are_stable(indices, nshards):
    """Once pinned, a flow keeps its shard no matter what arrives later."""
    steer = StickyFlowSteering()
    pinned = {i: steer.shard_of(tuple_for(i), nshards) for i in indices}
    for i in reversed(indices):
        assert steer.shard_of(tuple_for(i), nshards) == pinned[i]


key_indices = st.integers(min_value=0, max_value=14)

# A command is (op, key_index) -- insert/remove/lookup_data/lookup_ack --
# or ("lookup_batch", [(key_index, kind), ...]), one lookup_batch call.
commands = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["insert", "remove", "lookup_data", "lookup_ack"]),
            key_indices,
        ),
        st.tuples(
            st.just("lookup_batch"),
            st.lists(
                st.tuples(key_indices, st.sampled_from(list(PacketKind))),
                max_size=8,
            ),
        ),
    ),
    max_size=60,
)


def steering_variants():
    return [HashSteering(), RoundRobinSteering(), StickyFlowSteering()]


@given(commands, st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_sharded_semantically_identical_to_unsharded(script, nshards):
    """Any command script gives identical membership and lookup targets
    on the unsharded structure and every sharded variant of it, per
    call and batched.  Under flow-stable steering every live flow's
    home is also the steering's choice: packets of live flows read the
    home table instead of steering, so the two must never disagree."""
    reference = SequentDemux(5)
    variants = [
        ShardedDemux(lambda: SequentDemux(5), nshards, steering)
        for steering in steering_variants()
    ]
    live = {}  # index -> list of per-structure PCBs

    def expected_pcb(index, position):
        pcbs = live.get(index)
        return None if pcbs is None else pcbs[position]

    for op, arg in script:
        structures = [reference] + variants
        if op == "insert":
            if arg in live:
                continue
            live[arg] = []
            for structure in structures:
                pcb = PCB(tuple_for(arg))
                structure.insert(pcb)
                live[arg].append(pcb)
        elif op == "remove":
            if arg not in live:
                continue
            expected = live.pop(arg)
            for structure, pcb in zip(structures, expected):
                assert structure.remove(tuple_for(arg)) is pcb
        elif op == "lookup_batch":
            packets = [(tuple_for(index), kind) for index, kind in arg]
            for position, structure in enumerate(structures):
                results = structure.lookup_batch(packets)
                for (index, _), result in zip(arg, results):
                    assert result.pcb is expected_pcb(index, position)
        else:
            kind = PacketKind.DATA if op == "lookup_data" else PacketKind.ACK
            for position, structure in enumerate(structures):
                result = structure.lookup(tuple_for(arg), kind)
                assert result.pcb is expected_pcb(arg, position)

        # Global invariants after every command.
        expected_tuples = sorted(tuple_for(i) for i in live)
        for variant in variants:
            assert len(variant) == len(live)
            assert sorted(p.four_tuple for p in variant) == expected_tuples
            assert sum(variant.occupancy()) == len(live)
            if variant.steering.flow_stable:
                for i in live:
                    tup = tuple_for(i)
                    assert variant.shard_of(tup) == (
                        variant.steering.shard_of(tup, nshards)
                    )
