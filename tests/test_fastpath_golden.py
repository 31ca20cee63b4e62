"""Golden-trace conformance: fast twins vs committed reference traces.

``tests/golden/*.json`` pins the per-packet decisions of every
reference algorithm on seeded streams (regenerate with ``PYTHONPATH=src
python tests/golden/generate_golden.py``).  Two stream shapes:

* *TPC/A* goldens replay a static connection population -- inserts up
  front, then lookups only;
* the *churn* golden replays a mutation-heavy walk where inserts and
  removes interleave with the lookups, pinning the remove/evict path
  (including the fast path's intern-table eviction) that the static
  streams never touch.

These rows of the conformance matrix (``conformance_matrix.py``) assert
each golden byte-for-byte: the references still reproduce their own
traces (semantic drift in ``repro.core`` shows up here first), each
``fast-`` twin reproduces them per call and through ``lookup_batch`` at
awkward chunk sizes, and the sharded fast layouts -- hash, rr and
sticky steering -- match their sharded references.
"""

from __future__ import annotations

import pytest

from conformance_matrix import GOLDENS, Mode, check, lookups, run, sharded
from repro.lifecycle.metrics import count_interned


@pytest.fixture(params=sorted(GOLDENS), ids=lambda stem: f"{stem}.json")
def golden(request):
    """One golden stream's stem; its specs are ``GOLDENS[stem]["decisions"]``."""
    return request.param


def test_golden_files_exist():
    assert len(GOLDENS) >= 4, (
        "golden traces missing; run tests/golden/generate_golden.py"
    )
    assert any("churn" in data for data in GOLDENS.values()), (
        "churn golden missing; run tests/golden/generate_golden.py"
    )


def test_stream_shape_matches_golden(golden):
    expected = lookups(golden)
    assert GOLDENS[golden].get("lookups", expected) == expected
    for spec, decisions in GOLDENS[golden]["decisions"].items():
        assert len(decisions) == expected, spec


def test_reference_reproduces_golden(golden):
    for spec in GOLDENS[golden]["decisions"]:
        check(spec, golden)


def test_fast_reproduces_golden_per_call(golden):
    for spec in GOLDENS[golden]["decisions"]:
        check(f"fast-{spec}", golden)


@pytest.mark.parametrize("batch_size", [1, 7, 64, 256])
def test_fast_reproduces_golden_batched(golden, batch_size):
    for spec in GOLDENS[golden]["decisions"]:
        check(f"fast-{spec}", golden, Mode(chunk=batch_size))


def test_sharded_fast_matches_sharded_reference(golden):
    # The composed prefixes: sharded facade over fast shards, batched.
    # Sharding changes examined counts (each shard scans its own slice),
    # so the oracle is the sharded *reference*, replayed per call.
    for spec in GOLDENS[golden]["decisions"]:
        check(sharded(f"fast-{spec}"), golden, Mode(chunk=64))


@pytest.mark.parametrize("steer", ["rr", "sticky"])
def test_steered_sharded_fast_matches_sharded_reference(golden, steer):
    for spec in GOLDENS[golden]["decisions"]:
        check(sharded(f"fast-{spec}", steer), golden, Mode(chunk=64))


def test_churn_leaves_intern_tables_exactly_live(golden):
    # Memory-bounds contract on the golden churn stream: every churn
    # cell holds one interned key per live connection (``check`` takes
    # that census), and draining the survivors leaves none behind.
    if "churn" not in GOLDENS[golden]:
        pytest.skip("intern-table census only applies to churn goldens")
    for spec in GOLDENS[golden]["decisions"]:
        _, algorithm = run(f"fast-{spec}", golden)
        assert count_interned(algorithm) == len(algorithm) > 0, spec
        for pcb in list(algorithm):
            algorithm.remove(pcb.four_tuple)
        assert count_interned(algorithm) == 0, spec
