"""The million-connection tier: the canary's stream bound and scaling.

Pins the ``canary`` subcommand's connection-count bound (checked
before any stream is recorded, so a typo fails at once instead of
grinding through a multi-million-connection recording) and -- marked
slow -- the scaling claim itself: chained backends' p99 PCBs-examined
grows with N while ``fast-cuckoo`` stays at a small constant.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.fastpath.gate import MAX_SWEEP_USERS, measure_replay
from repro.workload import record
from repro.workload.record import record_tpca_stream


@pytest.fixture
def recorded(monkeypatch):
    """Record a tiny stream in place of whatever the canary asks for.

    Collects the ``n_users`` of every recording, so a test sees whether
    (and with what) the canary recorded without ever building a large
    stream.
    """
    requests = []

    def tiny_stream(n_users, duration, seed, **kwargs):
        requests.append(n_users)
        return record_tpca_stream(20, 1.0, seed)

    monkeypatch.setattr(record, "record_tpca_stream", tiny_stream)
    return requests


def canary(users):
    """Exit status of a canary run on a synthetic stream of ``users``."""
    try:
        return main(
            ["canary", "fast-sequent:h=7", "--incumbent", "sequent:h=7",
             "--users", str(users), "--repeats", "1"]
        )
    except SystemExit as exit:  # argparse rejects a non-integer
        return exit.code


class TestSweepValidation:
    @pytest.mark.parametrize("bad", [0, -5, 2.5])
    def test_rejects_non_positive_or_non_int(self, bad, recorded, capsys):
        assert canary(bad) == 2
        assert "--users" in capsys.readouterr().err
        assert recorded == []

    def test_rejects_above_bound(self, recorded, capsys):
        assert canary(MAX_SWEEP_USERS + 1) == 2
        assert f"{MAX_SWEEP_USERS:,}" in capsys.readouterr().err
        assert recorded == []

    def test_accepts_the_bound_itself(self, recorded):
        # Recorded, then judged: PROMOTE or BLOCK, never "unusable".
        assert canary(MAX_SWEEP_USERS) in (0, 1)
        assert recorded == [MAX_SWEEP_USERS]


@pytest.mark.slow
class TestScalingShape:
    """The tentpole claim, asserted end-to-end at 10^4 and 10^5."""

    def test_cuckoo_p99_flat_while_chained_grows(self):
        p99 = {}
        for n_users in (10_000, 100_000):
            stream = record_tpca_stream(n_users, 1.0, 7)
            for spec in ("fast-sequent:h=19", "fast-cuckoo"):
                m = measure_replay(spec, stream, repeats=1, chunk=512)
                p99[(spec, n_users)] = m.p99_examined
        # Chained: p99 examined tracks N/H -- grows by roughly 10x
        # across the decade (allow wide slack; the shape is the claim).
        assert p99[("fast-sequent:h=19", 100_000)] > (
            3 * p99[("fast-sequent:h=19", 10_000)]
        )
        assert p99[("fast-sequent:h=19", 100_000)] > 1000
        # O(1) tier: a small constant, per the acceptance bound.
        assert p99[("fast-cuckoo", 10_000)] <= 4
        assert p99[("fast-cuckoo", 100_000)] <= 4
