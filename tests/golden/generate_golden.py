"""Regenerate the golden decision-trace files in this directory.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_golden.py

Each golden file pins the per-packet decisions -- ``[found, examined,
cache_hit]`` -- of a set of specs on one seeded stream, replayed per
call through the conformance driver
(:func:`repro.fastpath.conformance.replay`).  The files are committed;
regenerating them should be a no-op unless reference semantics changed
on purpose, in which case the diff *is* the review artifact (CI's
``smoke`` job fails on any diff).
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.core.registry import make_algorithm
from repro.fastpath.conformance import (
    churn_ops,
    golden_ops,
    golden_stream,
    replay,
)

HERE = pathlib.Path(__file__).resolve().parent

#: Reference specs recorded in each top-level file.  Every spec here
#: must have a ``fast-`` twin; the conformance matrix derives the twin
#: by prefixing.
ALGORITHMS = (
    "linear",
    "bsd",
    "mtf",
    "sequent:h=7",
    "hashed_mtf:h=5",
)

#: Cuckoo goldens live in the ``cuckoo/`` subdirectory -- they have no
#: reference twin, so the prefixing convention does not apply.
#: Geometries are chosen to pin different behaviours: the default
#: table, a tiny table that must resize (and kick, and stash) under the
#: stream, and the sharded composition.
CUCKOO_ALGORITHMS = (
    "fast-cuckoo",
    "fast-cuckoo:buckets=2,slots=2,stash=2,kick=4",
    "sharded-fast-cuckoo:shards=4,buckets=4",
)

#: (path, stream parameters, specs) per golden file.  TPC/A streams
#: (``seed``, ``n_users``, ``duration``) replay a static connection
#: population; churn walks (``seed``, ``steps``) interleave inserts and
#: removes with the lookups, pinning the remove/evict path the static
#: streams never touch.  Sizes are kept modest so the JSON stays
#: reviewable; three seeds x five algorithms still cross every cache,
#: chain, and miss path.
GOLDENS = (
    ("tpca_seed101.json", {"seed": 101, "n_users": 48, "duration": 40.0},
     ALGORITHMS),
    ("tpca_seed202.json", {"seed": 202, "n_users": 96, "duration": 30.0},
     ALGORITHMS),
    ("tpca_seed303.json", {"seed": 303, "n_users": 24, "duration": 60.0},
     ALGORITHMS),
    ("churn_seed404.json", {"seed": 404, "steps": 4000}, ALGORITHMS),
    ("cuckoo/cuckoo_seed101.json",
     {"seed": 101, "n_users": 48, "duration": 40.0}, CUCKOO_ALGORITHMS),
    ("cuckoo/cuckoo_seed202.json",
     {"seed": 202, "n_users": 96, "duration": 30.0}, CUCKOO_ALGORITHMS),
    ("cuckoo/cuckoo_churn_seed404.json", {"seed": 404, "steps": 4000},
     CUCKOO_ALGORITHMS),
)


def header(params: dict) -> dict:
    """A golden file's stream description, as :func:`golden_ops` reads it."""
    if "steps" in params:
        walk = churn_ops(params["seed"], steps=params["steps"])
        return {
            "mode": "churn",
            "churn": params,
            "lookups": sum(1 for op in walk if op[0] == "lookup"),
        }
    stream = golden_stream(
        params["seed"], n_users=params["n_users"], duration=params["duration"]
    )
    return {"stream": params, "packets": len(stream.packets)}


def build(params: dict, specs) -> dict:
    golden = header(params)
    ops = golden_ops(golden)
    golden["decisions"] = {
        spec: replay(make_algorithm(spec), ops)[0] for spec in specs
    }
    return golden


def main() -> int:
    for name, params, specs in GOLDENS:
        path = HERE / name
        path.parent.mkdir(exist_ok=True)
        golden = build(params, specs)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        ndecisions = len(next(iter(golden["decisions"].values())))
        print(f"wrote {name}: {ndecisions} decisions x {len(specs)} specs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
