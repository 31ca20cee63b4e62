"""Golden-trace proof for checkpoint/restore and supervised recovery.

The committed goldens (``tests/golden/*.json``) pin every reference
algorithm's per-packet decisions on seeded streams.  These rows of the
conformance matrix (``conformance_matrix.py``) replay those exact
streams but *interrupt* the structure mid-stream -- a snapshot/restore
round trip, or a full shard crash recovered by the supervisor -- and
assert the pinned traces are still reproduced byte-for-byte, per-call
and batched.  A restored-from-checkpoint demux is thereby proven
decision-identical to one that never went down.
"""

from __future__ import annotations

import pytest

from conformance_matrix import CUCKOO_GOLDENS, GOLDENS, Mode, check, sharded


@pytest.fixture(params=sorted(GOLDENS), ids=lambda stem: f"{stem}.json")
def golden(request):
    """One golden stream's stem; its specs are ``GOLDENS[stem]["decisions"]``."""
    return request.param


def test_restored_reference_reproduces_golden(golden):
    for spec in GOLDENS[golden]["decisions"]:
        check(spec, golden, Mode(restore=0.5))


def test_restored_fast_twin_reproduces_golden(golden):
    for spec in GOLDENS[golden]["decisions"]:
        check(f"fast-{spec}", golden, Mode(restore=0.5))


@pytest.mark.parametrize("batch_size", [1, 7, 64, 256])
def test_restored_reproduces_golden_batched(golden, batch_size):
    for spec in GOLDENS[golden]["decisions"]:
        check(f"fast-{spec}", golden, Mode(chunk=batch_size, restore=0.5))


def test_restored_sharded_matches_uninterrupted_sharded(golden):
    # Sharding changes examined counts, so the oracle is the
    # uninterrupted sharded reference, not the flat golden file.
    for spec in GOLDENS[golden]["decisions"]:
        check(sharded(spec), golden, Mode(restore=0.5))


class TestSupervisedRecoveryGolden:
    """A shard crash recovered warm mid-stream reproduces the
    uninterrupted sharded trace on every golden stream -- per-call and
    batched.  (The supervisor refuses snapshot capture by design, so it
    has no restored cells.)"""

    SPECS = [
        "sharded-mtf:shards=4",
        "sharded-fast-mtf:shards=4",
        "sharded-fast-cuckoo:shards=4,buckets=4",
    ]

    @staticmethod
    def streams(spec):
        return CUCKOO_GOLDENS if "cuckoo" in spec else GOLDENS

    @pytest.mark.parametrize("spec", SPECS)
    def test_warm_recovery_per_call(self, spec):
        for stream in self.streams(spec):
            check(spec, stream, Mode(crash=1))

    @pytest.mark.parametrize("spec", SPECS)
    def test_warm_recovery_batched(self, spec):
        for stream in self.streams(spec):
            check(spec, stream, Mode(chunk=64, crash=2))
