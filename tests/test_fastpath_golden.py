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

Each golden is asserted byte-for-byte three ways: the references still
reproduce their own traces (semantic drift in ``repro.core`` shows up
here first), each ``fast-`` twin reproduces them per-call, and each
twin reproduces them through ``lookup_batch`` at awkward batch sizes.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.fastpath.conformance import (
    churn_ops,
    decision_trace,
    golden_stream,
    mutation_trace,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))


def load_golden(path: pathlib.Path) -> dict:
    return json.loads(path.read_text())


@pytest.fixture(scope="module", params=[p.name for p in GOLDEN_FILES])
def golden(request):
    """One golden file plus a mode-appropriate replay closure.

    ``replay(spec, use_batch=..., batch_size=...)`` returns the
    decision trace of ``spec`` on this golden's stream, whatever its
    mode, so every assertion below is mode-agnostic.
    """
    data = load_golden(GOLDEN_DIR / request.param)
    if data.get("mode") == "churn":
        ops = churn_ops(data["churn"]["seed"], steps=data["churn"]["steps"])

        def replay(spec, *, use_batch=False, batch_size=64):
            return mutation_trace(
                spec, ops, use_batch=use_batch, batch_size=batch_size
            )[0]
    else:
        stream = golden_stream(
            data["stream"]["seed"],
            n_users=data["stream"]["n_users"],
            duration=data["stream"]["duration"],
        )

        def replay(spec, *, use_batch=False, batch_size=64):
            return decision_trace(
                spec, stream, use_batch=use_batch, batch_size=batch_size
            )
    return data, replay


def test_golden_files_exist():
    assert len(GOLDEN_FILES) >= 4, (
        "golden traces missing; run tests/golden/generate_golden.py"
    )
    modes = {load_golden(path).get("mode", "tpca") for path in GOLDEN_FILES}
    assert "churn" in modes, (
        "churn golden missing; run tests/golden/generate_golden.py"
    )


def test_stream_shape_matches_golden(golden):
    data, _ = golden
    expected = (
        data["lookups"] if data.get("mode") == "churn" else None
    )
    for spec, decisions in data["decisions"].items():
        if expected is None:
            expected = len(decisions)
        assert len(decisions) == expected, spec


def test_reference_reproduces_golden(golden):
    data, replay = golden
    for spec, expected in data["decisions"].items():
        assert replay(spec) == expected, spec


def test_fast_reproduces_golden_per_call(golden):
    data, replay = golden
    for spec, expected in data["decisions"].items():
        assert replay(f"fast-{spec}") == expected, spec


@pytest.mark.parametrize("batch_size", [1, 7, 64, 256])
def test_fast_reproduces_golden_batched(golden, batch_size):
    data, replay = golden
    for spec, expected in data["decisions"].items():
        trace = replay(f"fast-{spec}", use_batch=True, batch_size=batch_size)
        assert trace == expected, (spec, batch_size)


def test_sharded_fast_matches_sharded_reference(golden):
    # The composed prefixes: sharded facade over fast shards, batched.
    # Sharding changes examined counts (each shard scans its own slice),
    # so the oracle is the sharded *reference*, replayed per-call.
    data, replay = golden
    for spec in data["decisions"]:
        name, _, params = spec.partition(":")
        suffix = f",{params}" if params else ""
        reference = replay(f"sharded-{name}:shards=4" + suffix)
        fast = replay(
            f"sharded-fast-{name}:shards=4" + suffix, use_batch=True
        )
        assert fast == reference, spec


def test_churn_leaves_intern_tables_exactly_live(golden):
    # Memory-bounds contract on the golden churn stream: after the
    # walk, each fast structure holds one interned key per live
    # connection -- no retained memos for removed or probed-only ones.
    data, _ = golden
    if data.get("mode") != "churn":
        pytest.skip("intern-table census only applies to churn goldens")
    ops = churn_ops(data["churn"]["seed"], steps=data["churn"]["steps"])
    for spec in data["decisions"]:
        _, algorithm = mutation_trace(f"fast-{spec}", ops)
        assert algorithm.interned_entries == len(algorithm), spec
