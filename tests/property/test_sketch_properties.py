"""The batched train detector equals the per-key loop it replaced.

``TrainDetector.offer_packets`` folds a batch of ``(key, kind)``
packets into the detector in one loop, and skips the full key compare
when two ``FourTuple`` keys differ in their remote port.  Hypothesis
draws key streams that mix plain ints, ``FourTuple`` objects repeated
by identity, new tuples over shared address objects, equal tuples
built from fresh addresses, and plain tuples equal to a ``FourTuple``;
splits them into random batches; and checks the packet count, the
follower count and the EWMA against the per-key loop bit for bit.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import PacketKind
from repro.obs.sketch import TrainDetector
from repro.packet.addresses import FourTuple, IPv4Address

_ADDRESS_TEXT = ("10.0.0.1", "10.1.0.7")
_ADDRESSES = [IPv4Address(text) for text in _ADDRESS_TEXT]
_PORTS = (40000, 40001)
#: One object per key, so repeats of these compare by identity.
_SHARED = {
    (a, b, port): FourTuple(_ADDRESSES[a], 1521, _ADDRESSES[b], _PORTS[port])
    for a in (0, 1) for b in (0, 1) for port in (0, 1)
}


def _key(recipe):
    form, a, b, port = recipe
    if form == "int":
        return a * 4 + b * 2 + port
    if form == "shared":
        return _SHARED[(a, b, port)]
    if form == "shared-addresses":
        return FourTuple(_ADDRESSES[a], 1521, _ADDRESSES[b], _PORTS[port])
    fresh = FourTuple(
        IPv4Address(_ADDRESS_TEXT[a]), 1521,
        IPv4Address(_ADDRESS_TEXT[b]), _PORTS[port],
    )
    return fresh if form == "fresh" else tuple(fresh)


recipes = st.lists(
    st.tuples(
        st.sampled_from(
            ("int", "shared", "shared-addresses", "fresh", "plain")
        ),
        st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
    ),
    max_size=80,
)
cuts_strategy = st.lists(st.integers(min_value=0, max_value=100), max_size=6)


class PerKeyTrainDetector:
    """The per-key ``offer`` the batch loop replaced: the oracle."""

    _NOTHING = object()

    def __init__(self, alpha):
        self.alpha = alpha
        self._last = self._NOTHING
        self.packets = 0
        self.followers = 0
        self.train_ness = 0.0

    def offer(self, key):
        follower = key == self._last
        self._last = key
        self.packets += 1
        if follower:
            self.followers += 1
            self.train_ness += self.alpha * (1.0 - self.train_ness)
        else:
            self.train_ness -= self.alpha * self.train_ness


def batches(items, cuts):
    edges = sorted({0, len(items), *(c % (len(items) + 1) for c in cuts)})
    return [items[a:b] for a, b in zip(edges, edges[1:])]


def state(detector):
    return detector.packets, detector.followers, detector.train_ness.hex()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    recipes=recipes,
    cuts=cuts_strategy,
    alpha=st.sampled_from((0.05, 0.3, 1.0)),
)
def test_batched_offer_equals_per_key_loop(recipes, cuts, alpha):
    keys = [_key(recipe) for recipe in recipes]
    reference = PerKeyTrainDetector(alpha)
    for key in keys:
        reference.offer(key)
    batched = TrainDetector(alpha=alpha)
    for batch in batches(keys, cuts):
        batched.offer_packets([(key, PacketKind.DATA) for key in batch])
    assert state(batched) == state(reference)
    one_by_one = TrainDetector(alpha=alpha)
    for key in keys:
        one_by_one.offer(key)
    assert state(one_by_one) == state(reference)
