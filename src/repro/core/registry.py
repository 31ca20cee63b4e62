"""Factory registry for demultiplexing algorithms.

Experiments, the CLI, and the simulation harness construct algorithms
by name so that a sweep over {bsd, mtf, sendrecv, sequent, ...} is a
loop over strings.  Parameterized variants encode their parameters in
the spec string: ``"sequent:h=51,hash=crc16"``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

from ..hashing.functions import get_hash_function
from .base import DemuxAlgorithm
from .bsd import BSDDemux
from .connection_id import ConnectionIdDemux
from .hashed_mtf import HashedMTFDemux
from .linear import LinearDemux
from .mtf import MoveToFrontDemux
from .multicache import MultiCacheDemux
from .sendrecv import SendRecvDemux
from .sequent import DEFAULT_HASH_CHAINS, SequentDemux

__all__ = [
    "ACCEPTED_OPTIONS",
    "ALGORITHMS",
    "available_algorithms",
    "make_algorithm",
]

AlgorithmFactory = Callable[..., DemuxAlgorithm]

ALGORITHMS: Dict[str, AlgorithmFactory] = {
    "linear": LinearDemux,
    "bsd": BSDDemux,
    "mtf": MoveToFrontDemux,
    "multicache": MultiCacheDemux,
    "sendrecv": SendRecvDemux,
    "sequent": SequentDemux,
    "hashed_mtf": HashedMTFDemux,
    "connection_id": ConnectionIdDemux,
}

#: Spec options each algorithm family accepts, keyed by the reference
#: name (``fast-*`` twins accept the same options as their reference).
#: Unknown options raise a ``ValueError`` naming both the offender and
#: this list -- a silently ignored typo (``sequent:chains=51``) would
#: run the wrong experiment.
ACCEPTED_OPTIONS: Dict[str, tuple] = {
    "linear": (),
    "bsd": (),
    "mtf": (),
    "multicache": ("k",),
    "sendrecv": (),
    "sequent": ("h", "hash", "overload"),
    "hashed_mtf": ("h", "hash", "cache"),
    "connection_id": ("max",),
    "cuckoo": ("buckets", "slots", "stash", "kick"),
}


#: Reference names with a ``fast-`` twin in :mod:`repro.fastpath`.
#: Kept as a plain tuple (not an import) to preserve the layering:
#: ``repro.fastpath`` imports from ``repro.core``, never the reverse
#: at module scope.
FAST_VARIANT_NAMES = ("linear", "bsd", "mtf", "sequent", "hashed_mtf")

#: Fast-path-only structures with no reference twin (the paper has no
#: O(1) structure to mirror); reachable only via the ``fast-`` prefix:
#: ``fast-cuckoo:buckets=64,slots=4,stash=8,kick=64``.
FAST_ONLY_NAMES = ("cuckoo",)


def available_algorithms() -> Iterable[str]:
    """Registered algorithm names (including ``fast-`` twins), sorted."""
    names = list(ALGORITHMS)
    names.extend(f"fast-{name}" for name in FAST_VARIANT_NAMES)
    names.extend(f"fast-{name}" for name in FAST_ONLY_NAMES)
    return sorted(names)


def _parse_params(text: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed parameter {part!r} (expected key=value)")
        key, _, value = part.partition("=")
        params[key.strip()] = value.strip()
    return params


def make_algorithm(spec: str) -> DemuxAlgorithm:
    """Build an algorithm from a spec string.

    Examples::

        make_algorithm("bsd")
        make_algorithm("sequent:h=51")
        make_algorithm("sequent:h=19,hash=xor_fold")
        make_algorithm("hashed_mtf:h=19,cache=no")
        make_algorithm("multicache:k=16")
        make_algorithm("fast-sequent:h=19,overload=64")
        make_algorithm("fast-cuckoo:buckets=64,slots=4,stash=8")
        make_algorithm("sharded-sequent:shards=8,steer=hash,h=19")
        make_algorithm("sharded-fast-sequent:shards=8,h=19")

    A ``sharded-`` prefix wraps any registered algorithm in a
    :class:`repro.smp.ShardedDemux` of ``shards`` instances (default
    8) behind a ``steer`` policy (``hash``, ``rr``, ``sticky``;
    default ``hash``); remaining parameters go to the inner algorithm.
    Existing CLI paths (``compare``, ``simulate``, ``fault-matrix``)
    exercise sharded variants with no new plumbing.

    A ``fast-`` prefix names the array-backed twin from
    :mod:`repro.fastpath` -- decision-identical, same options as the
    reference it mirrors.  The prefixes compose:
    ``sharded-fast-sequent:shards=8`` shards the fast structure.

    Raises ``ValueError`` for unknown names or parameters; the
    parameter error names the offending option *and* the options the
    algorithm accepts.
    """
    name, _, param_text = spec.partition(":")
    name = name.strip().lower()
    if name.startswith("sharded-"):
        algorithm = _make_sharded(name[len("sharded-"):], param_text)
    elif name.startswith("fast-"):
        algorithm = _make_fast(name[len("fast-"):], param_text)
    elif name not in ALGORITHMS:
        known = ", ".join(available_algorithms())
        raise ValueError(
            f"unknown algorithm {name!r}; known: {known}"
            f" (plus 'fast-' and 'sharded-' prefixed variants)"
        )
    else:
        algorithm = _construct(
            name, _parse_params(param_text), ALGORITHMS[name]
        )
    # Stamp the spec so checkpoint/restore (repro.recovery) can rebuild
    # an equivalent instance without the caller re-threading the string.
    algorithm.spec = spec.strip()
    return algorithm


def _construct(
    name: str,
    params: Dict[str, str],
    factory: AlgorithmFactory,
    *,
    display: str = "",
) -> DemuxAlgorithm:
    """Apply ``name``'s option conventions to ``factory``.

    ``display`` is the user-facing spec name for error messages (so a
    bad ``fast-sequent`` option is reported against ``fast-sequent``,
    not ``sequent``); option vocabulary is always the reference
    ``name``'s.
    """
    display = display or name

    if name in ("sequent", "hashed_mtf"):
        kwargs = {}
        nchains = DEFAULT_HASH_CHAINS
        if "h" in params:
            nchains = int(params.pop("h"))
        if "hash" in params:
            kwargs["hash_function"] = get_hash_function(params.pop("hash"))
        if name == "sequent" and "overload" in params:
            kwargs["overload_threshold"] = int(params.pop("overload"))
        if name == "hashed_mtf" and "cache" in params:
            kwargs["per_chain_cache"] = params.pop("cache").lower() in (
                "1",
                "yes",
                "true",
            )
        _reject_leftovers(name, params, display=display)
        return factory(nchains, **kwargs)

    if name == "connection_id":
        kwargs = {}
        if "max" in params:
            kwargs["max_connections"] = int(params.pop("max"))
        _reject_leftovers(name, params, display=display)
        return factory(**kwargs)

    if name == "multicache":
        kwargs = {}
        if "k" in params:
            kwargs["cache_size"] = int(params.pop("k"))
        _reject_leftovers(name, params, display=display)
        return factory(**kwargs)

    if name == "cuckoo":
        kwargs = {}
        for option in ("buckets", "slots", "stash", "kick"):
            if option in params:
                kwargs[option] = int(params.pop(option))
        _reject_leftovers(name, params, display=display)
        return factory(**kwargs)

    _reject_leftovers(name, params, display=display)
    return factory()


def _make_fast(inner_name: str, param_text: str) -> DemuxAlgorithm:
    """Build ``fast-<algo>`` from :mod:`repro.fastpath`.

    Imported lazily for the same layering reason as ``sharded-``:
    ``repro.fastpath`` sits above ``repro.core`` and imports the base
    classes from here.
    """
    from ..fastpath.algorithms import FAST_ALGORITHMS

    inner_name = inner_name.strip().lower()
    if inner_name not in FAST_ALGORITHMS:
        known = ", ".join(f"fast-{name}" for name in sorted(FAST_ALGORITHMS))
        raise ValueError(
            f"unknown fast algorithm 'fast-{inner_name}'; known: {known}"
        )
    return _construct(
        inner_name,
        _parse_params(param_text),
        FAST_ALGORITHMS[inner_name],
        display=f"fast-{inner_name}",
    )


def _make_sharded(inner_name: str, param_text: str) -> DemuxAlgorithm:
    """Build ``sharded-<algo>``: pop shards/steer, forward the rest.

    Imported lazily: ``repro.smp`` sits above ``repro.core`` in the
    layering (it imports the base classes from here), so a module-level
    import would be circular.
    """
    from ..smp.sharded import ShardedDemux
    from ..smp.steering import make_steering

    params = _parse_params(param_text)
    nshards = int(params.pop("shards", "8"))
    steering = make_steering(params.pop("steer", "hash"))
    # Reject unknown options against the spec the caller wrote, which
    # also accepts the sharded layer's own options.
    reference = inner_name
    if reference.startswith("fast-"):
        reference = reference[len("fast-"):]
    if reference in ACCEPTED_OPTIONS:
        _reject_leftovers(
            reference,
            {
                key: value
                for key, value in params.items()
                if key not in ACCEPTED_OPTIONS[reference]
            },
            display=f"sharded-{inner_name}",
            extra=("shards", "steer"),
        )
    inner_params = ",".join(f"{key}={value}" for key, value in params.items())
    inner_spec = f"{inner_name}:{inner_params}" if inner_params else inner_name
    # Build one inner instance eagerly so a bad inner spec fails here,
    # not from inside the shard factory.
    make_algorithm(inner_spec)
    return ShardedDemux(
        lambda: make_algorithm(inner_spec),
        nshards,
        steering,
        inner_spec=inner_spec,
    )


def _reject_leftovers(
    name: str,
    params: Dict[str, str],
    *,
    display: str = "",
    extra: tuple = (),
) -> None:
    if params:
        display = display or name
        accepted = extra + ACCEPTED_OPTIONS.get(name, ())
        accepted_text = ", ".join(accepted) if accepted else "none"
        unknown = ", ".join(sorted(params))
        raise ValueError(
            f"unknown parameter(s) for {display!r}: {unknown};"
            f" {display!r} accepts: {accepted_text}"
        )
