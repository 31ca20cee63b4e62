"""Golden decision traces for the O(1) cuckoo backend.

The cuckoo table has no reference twin to differential-test against, so
its committed goldens (``tests/golden/cuckoo/*.json``) carry the full
conformance load: per-call, batched (several sizes), and
restored-from-snapshot replays must all reproduce the committed
decisions byte-for-byte (rows of ``conformance_matrix.py``).  The churn
golden pins the mutation-heavy path (kickouts, stash traffic, resizes,
drains) that static streams barely touch.
"""

from __future__ import annotations

import pytest

from conformance_matrix import CUCKOO_GOLDENS, GOLDEN_DIR, Mode, check

STREAM_GOLDENS = []
CHURN_GOLDENS = []
for stem, golden in CUCKOO_GOLDENS.items():
    bucket = CHURN_GOLDENS if "churn" in golden else STREAM_GOLDENS
    for spec in golden["decisions"]:
        bucket.append(pytest.param(stem, spec, id=f"{stem}-{spec}"))


def test_golden_files_exist():
    assert STREAM_GOLDENS, f"no cuckoo stream goldens under {GOLDEN_DIR}"
    assert CHURN_GOLDENS, f"no cuckoo churn goldens under {GOLDEN_DIR}"


class TestStreamGoldens:
    @pytest.mark.parametrize("stream,spec", STREAM_GOLDENS)
    def test_per_call(self, stream, spec):
        check(spec, stream)

    @pytest.mark.parametrize("stream,spec", STREAM_GOLDENS)
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_batched(self, stream, spec, batch_size):
        check(spec, stream, Mode(chunk=batch_size))

    @pytest.mark.parametrize("stream,spec", STREAM_GOLDENS)
    @pytest.mark.parametrize("split", [0.25, 0.5, 0.75])
    def test_restored_from_snapshot(self, stream, spec, split):
        check(spec, stream, Mode(restore=split))

    @pytest.mark.parametrize("stream,spec", STREAM_GOLDENS)
    def test_restored_then_batched(self, stream, spec):
        check(spec, stream, Mode(chunk=64, restore=0.5))


class TestChurnGoldens:
    # Every churn cell also takes the leak census (``check``).

    @pytest.mark.parametrize("stream,spec", CHURN_GOLDENS)
    def test_per_call(self, stream, spec):
        check(spec, stream)

    @pytest.mark.parametrize("stream,spec", CHURN_GOLDENS)
    def test_batched(self, stream, spec):
        check(spec, stream, Mode(chunk=32))

    @pytest.mark.parametrize("stream,spec", CHURN_GOLDENS)
    @pytest.mark.parametrize("split", [0.3, 0.6])
    def test_restored_mid_churn(self, stream, spec, split):
        """Snapshot/restore mid-churn, then keep mutating: the layout
        (kickout placement, stash order, pre-filters) must survive
        restore exactly or the remaining churn diverges."""
        check(spec, stream, Mode(restore=split))
