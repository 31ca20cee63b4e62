"""Property tier for the batch intern probe.

``KeyCache.probe_batch`` replaces a per-packet ``probe`` loop on every
batched fast path.  For any batch mixing interned (live) and
never-interned tuples, it must return the loop's entries, add the
loop's counter totals, and -- like ``probe`` -- never intern.  Every
intern-table flavour is covered: the chain-memoizing ``KeyCache``,
the list-shaped structures' ``OrdinalKeyCache`` and ``fast-cuckoo``'s
spread-memoizing subclass.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.stats import PacketKind
from repro.fastpath.cuckoo import _SpreadCache
from repro.fastpath.keycache import KeyCache, OrdinalKeyCache
from repro.hashing import default_hash
from repro.packet.addresses import FourTuple, IPv4Address

SERVER = IPv4Address("10.0.0.1")

CACHES = [
    ("chained", lambda: KeyCache(lambda tup: default_hash(tup, 19))),
    ("unchained", KeyCache),
    ("ordinal", lambda: OrdinalKeyCache(lambda tup: default_hash(tup, 19))),
    ("spread", _SpreadCache),
]


def tuple_for(index: int) -> FourTuple:
    return FourTuple(
        SERVER, 1521, IPv4Address("10.7.0.0") + index, 41000 + index
    )


live_sets = st.sets(st.integers(min_value=0, max_value=40), max_size=30)
batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=80),
        st.sampled_from([PacketKind.DATA, PacketKind.ACK]),
    ),
    max_size=80,
)


@pytest.mark.parametrize(
    "factory", [factory for _, factory in CACHES],
    ids=[label for label, _ in CACHES],
)
@given(live=live_sets, batch=batches)
@settings(max_examples=60, deadline=None)
def test_probe_batch_equals_probe_loop(factory, live, batch):
    looped, batched = factory(), factory()
    for cache in (looped, batched):
        for index in sorted(live):
            cache.entry(tuple_for(index))
    packets = [(tuple_for(index), kind) for index, kind in batch]
    expected = [looped.probe(tup) for tup, _ in packets]
    interned = len(batched)
    assert batched.probe_batch(packets) == expected
    assert batched.counters.as_dict() == looped.counters.as_dict()
    assert len(batched) == interned == len(live)
