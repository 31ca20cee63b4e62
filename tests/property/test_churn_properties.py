"""Churn property tests: memory bounds + equivalence under mutation.

The static differential suites (``test_fastpath_equiv``, the TPC/A
goldens) mostly exercise lookup-heavy traffic over a fixed population.
These properties drive the registry's fast specs through seeded
insert/remove/lookup churn walks (:func:`repro.fastpath.conformance.
churn_ops`) and assert two contracts the fast path must keep while the
population turns over:

* **memory bounds** -- after any churn walk, every intern table holds
  exactly one entry per live connection (``interned <= live + grace``
  with grace 0); draining the survivors leaves it empty.  This is the
  regression test for the KeyCache leak, where ``_remove`` forgot to
  evict the interned key and the table grew monotonically.
* **decision equivalence** -- the fast twin's decision trace over the
  walk is byte-identical to its reference's, per-call and batched.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.fastpath.conformance import churn_ops, churn_tuple, replay, walk_ops
from repro.lifecycle.metrics import count_interned

#: Every interning spec the registry offers, paired with its reference.
#: Hash sizes are kept small so chains actually collide under churn.
FAST_SPECS = [
    ("fast-linear", "linear"),
    ("fast-bsd", "bsd"),
    ("fast-mtf", "mtf"),
    ("fast-sequent:h=5", "sequent:h=5"),
    ("fast-hashed_mtf:h=3", "hashed_mtf:h=3"),
    ("sharded-fast-sequent:shards=4,h=5", "sharded-sequent:shards=4,h=5"),
    ("sharded-fast-mtf:shards=2", "sharded-mtf:shards=2"),
]

churn_params = st.tuples(
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
    st.integers(min_value=1, max_value=400),  # steps
)


def interned_total(algorithm):
    """Interned-key census via the same duck-typing the audit uses."""
    total = count_interned(algorithm)
    assert total is not None, "spec under test does not intern keys?"
    return total


@pytest.mark.parametrize("fast_spec,reference_spec", FAST_SPECS)
@given(params=churn_params)
@settings(max_examples=25, deadline=None)
def test_churn_keeps_interned_bounded_by_live(
    fast_spec, reference_spec, params
):
    seed, steps = params
    ops = walk_ops(churn_ops(seed, steps=steps))
    _, algorithm = replay(make_algorithm(fast_spec), ops)
    live = len(algorithm)
    assert interned_total(algorithm) <= live + 0, (
        f"{fast_spec}: interned keys exceed live connections"
    )
    # The bound is tight, not just an inequality: inserts intern and
    # lookups/removes must not, so the census matches live exactly.
    assert interned_total(algorithm) == live


@pytest.mark.parametrize("fast_spec,reference_spec", FAST_SPECS)
@given(params=churn_params)
@settings(max_examples=15, deadline=None)
def test_drained_structure_retains_no_interned_keys(
    fast_spec, reference_spec, params
):
    seed, steps = params
    ops = walk_ops(churn_ops(seed, steps=steps))
    _, algorithm = replay(make_algorithm(fast_spec), ops)
    for pcb in list(algorithm):
        algorithm.remove(pcb.four_tuple)
    assert len(algorithm) == 0
    assert interned_total(algorithm) == 0, (
        f"{fast_spec}: drained structure still holds interned keys"
    )


@pytest.mark.parametrize("fast_spec,reference_spec", FAST_SPECS)
@given(params=churn_params)
@settings(max_examples=15, deadline=None)
def test_churn_decisions_match_reference(fast_spec, reference_spec, params):
    seed, steps = params
    ops = walk_ops(churn_ops(seed, steps=steps))
    expected, _ = replay(make_algorithm(reference_spec), ops)
    per_call, _ = replay(make_algorithm(fast_spec), ops)
    batched, _ = replay(make_algorithm(fast_spec), ops, chunk=7, batched=True)
    assert per_call == expected, fast_spec
    assert batched == expected, fast_spec


def test_ten_thousand_insert_remove_cycles_leave_nothing_interned():
    # The issue's acceptance criterion, verbatim: 10k insert/remove
    # cycles on fast-sequent:h=19 must leave interned == live (== 0).
    algorithm = make_algorithm("fast-sequent:h=19")
    for cycle in range(10000):
        tup = churn_tuple(cycle % 4096)
        algorithm.insert(PCB(tup))
        algorithm.remove(tup)
    assert len(algorithm) == 0
    assert algorithm.interned_entries == 0
    assert algorithm.fastpath_counters.evicted_keys == 10000
