"""What the benchmark runs and reports: workloads, configurations, metrics.

``BENCHMARK.json`` at the checkout root is the machine contract and the
one place the gated workloads and the metric names, units, directions
and bounds are written; this module reads it and adds what the contract
has no room for -- the workload parameters, the ungated serve-loopback
workload and its round-trip metrics, the estimator behind every
end-to-end metric, and which end-to-end metric each per-layer metric
should move.  A contract metric without such a note fails the import.

:func:`use_checkout_src` puts the checkout's ``src/`` first on
``sys.path`` so the benchmark always measures the code it was checked
out with.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

with open(BENCHMARK_JSON, encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)

#: Interleaved rounds in the full run (``--quick`` uses 2).
ROUNDS = 16
QUICK_ROUNDS = 2

COMMAND = "PYTHONPATH=src python bench/run.py --seed 7"
QUICK_COMMAND = COMMAND + " --quick"

#: Configuration short name -> registry spec.  ``sequent-observed`` is
#: ``sequent`` with a default SpanCollector and a TrafficCharacterizer
#: attached -- what an operator running with telemetry gets.
CONFIGS = {
    "sequent": "fast-sequent:h=19",
    "cuckoo": "fast-cuckoo",
    "sharded": "sharded-fast-sequent:shards=4,steer=hash,h=19",
    "sequent-observed": "fast-sequent:h=19",
}
OBSERVED = "sequent-observed"

#: Workload parameters, full and ``--quick``.  Every generator is seeded
#: from ``--seed``; the program receives only the generated inputs.  The
#: offline streams are sized so that a round takes a second or two: the
#: composite estimator needs many rounds more than long ones.
WORKLOADS = {
    "tpca-hot": {
        "params": {"users": 100, "duration": 2600.0, "chunk": 256},
        "quick": {"users": 100, "duration": 1040.0, "chunk": 256},
        "loop": "closed, back-to-back lookup_batch calls",
    },
    "tpca-wide": {
        "params": {"users": 20000, "duration": 5.0, "chunk": 256},
        "quick": {"users": 20000, "duration": 2.0, "chunk": 256},
        "loop": "closed, back-to-back lookup_batch calls",
    },
    "churn": {
        "params": {"population": 5000, "ops": 30000},
        "quick": {"population": 5000, "ops": 10000},
        "loop": "closed, back-to-back insert/remove/lookup_batch calls",
    },
    "serve-loopback": {
        "params": {"users": 1000, "connections": 2, "frames": 2500},
        "quick": {"users": 1000, "connections": 2, "frames": 1000},
        "loop": "closed, 2 connections each awaiting its echo",
        "why": "The socket path users run: asyncio, framing and sessions"
               " surround every lookup, so it shows how much of a demux"
               " change reaches a served frame.",
    },
}
for _entry in CONTRACT["workloads"]:
    WORKLOADS[_entry["name"]]["why"] = _entry["why"]

#: The workloads ``BENCHMARK.json`` gates on.  ``serve-loopback`` is not
#: one of them: a client and a server process on a 2-vCPU host time the
#: scheduler as much as the program, and its runs spread wider than any
#: bound the contract allows.  The full run still reports it.
GATED = tuple(entry["name"] for entry in CONTRACT["workloads"])
ALL_WORKLOADS = tuple(WORKLOADS)

_COMPOSITE = (
    "composite: each call's fastest round, corrected by the reference"
    " kernel's speed in the same rounds"
)

_E2E_NOTES = {
    f"pps.{cfg}": {
        "estimator": _COMPOSITE,
        "what": f"operations per second through {cfg} (packets; every"
                " insert/remove/lookup on churn; echoed frames on"
                " serve-loopback)",
    }
    for cfg in CONFIGS
}
_E2E_NOTES.update({
    "setup_s": {
        "estimator": "median over the rounds of one set-up each, each"
                     " divided by its round's mean reference-kernel speed",
        "what": "load_stream plus building every configuration (tpca-*);"
                " building the starting population in every configuration"
                " (churn); server spawn until it announces its ports"
                " (serve-loopback)",
    },
    "mem_mb": {
        "estimator": "one walk of the object graph",
        "what": "bytes the four structures retain after a replay (or after"
                " serving), PCBs and four-tuples excluded",
    },
})

#: End-to-end metrics: every workload reports every one of them.
E2E = [dict(metric, **_E2E_NOTES[metric["name"]])
       for metric in CONTRACT["end_to_end"]]

#: serve-loopback's round trips, reported by the full run only (the
#: workload is not gated).  ``quantile`` is the highest with at least
#: ten of a cell's 5,000 frames beyond it, and the median.
SERVE_E2E = [
    {"name": f"serve.rtt_{label}_us", "unit": "us", "better": "lower",
     "bound": 0.25, "quantile": quantile, "estimator": _COMPOSITE,
     "what": f"{label} of a frame's round trip through sequent, client"
             " send to echo received"}
    for label, quantile in (("p50", 0.5), ("p99", 0.99))
]

#: The seven hash functions of repro.hashing.HASH_FUNCTIONS (crc32 is
#: default_hash, the one fast-sequent uses).
HASH_NAMES = (
    "xor_fold", "add_fold", "multiplicative", "crc16", "crc32",
    "remote_port_only", "python_builtin",
)

TIMED = ("sequent", "cuckoo")
COUNTED = ("sequent", "cuckoo", "sharded")

DECISION = "none: deterministic, so any change is a decision change"


def _note(layer: str, moves: str) -> dict:
    return {"layer": layer, "moves": moves}


#: Which layer each per-layer metric times and which end-to-end metric
#: (and workload) it should move.
_LAYER_NOTES = {}
for _cfg in CONFIGS:
    _LAYER_NOTES.update({
        f"lookup_batch.ns_per_pkt.{_cfg}": _note("fastpath.batch", f"pps.{_cfg}"),
        f"lookup.ns_per_pkt.{_cfg}": _note(
            "core.base", f"pps.{_cfg} on serve-loopback (its per-call path)"),
        f"build.ns_per_pcb.{_cfg}": _note(
            "core.registry + insert", "setup_s on tpca-wide"),
        f"mutate.ns_per_op.{_cfg}": _note("insert/remove", f"pps.{_cfg} on churn"),
    })
for _cfg in COUNTED:
    _LAYER_NOTES.update({
        f"examined.mean.{_cfg}": _note("paper section 3 count", DECISION),
        f"examined.p99.{_cfg}": _note("paper section 3 count", DECISION),
        f"batch.mean_size.{_cfg}": _note("fastpath.batch", "pps.* on churn"),
    })
for _cfg in TIMED:
    _LAYER_NOTES.update({
        f"intern.ns_per_pkt.{_cfg}": _note(
            "fastpath.keycache", f"pps.{_cfg} on tpca-hot"),
        f"lookup.self_ns_per_pkt.{_cfg}": _note(
            "fastpath.tables" if _cfg == "sequent" else "fastpath.cuckoo",
            f"pps.{_cfg} on tpca-wide"),
    })
for _fn in HASH_NAMES:
    _LAYER_NOTES.update({
        f"hash.{_fn}.ns_per_call": _note(
            "hashing.functions", "pps.sequent on churn; setup_s"),
        f"hash.{_fn}.scan_penalty": _note(
            "hashing.analysis", "pps.sequent on tpca-wide"),
    })
_LAYER_NOTES.update({
    "intern.hit_ratio": _note("fastpath.keycache", "pps.* on churn"),
    "stats.ns_per_pkt": _note(
        "core.stats", "pps.* on tpca-hot, least on tpca-wide"),
    "steer.ns_per_pkt": _note("smp.steering", "pps.sharded"),
    "sharded.overhead_ns_per_pkt": _note("smp.sharded", "pps.sharded"),
    "obs.overhead_ns_per_pkt": _note(
        "obs.spans + obs.sketch", "pps.sequent-observed"),
    "cache_hit_rate.sequent": _note(
        "fastpath.algorithms", "pps.sequent on tpca-hot"),
    "cuckoo.prefilter_skip_rate": _note("fastpath.cuckoo", "pps.cuckoo on churn"),
    "cuckoo.kickouts": _note("fastpath.cuckoo", "pps.cuckoo on churn"),
    "cuckoo.resizes": _note("fastpath.cuckoo", "setup_s on tpca-wide"),
    "cuckoo.load_factor": _note("fastpath.cuckoo", "mem_mb"),
    "capture.decode_ns_per_pkt": _note("workload.record", "setup_s on tpca-*"),
    "trace.overhead_pct": _note(
        "benchmark tracing", "none: how much timing each call inflates a replay"),
})

#: Per-layer metrics, measured in the traced pass on every workload's
#: operation stream replayed in-process.
LAYERS = [dict(metric, **_LAYER_NOTES[metric["name"]])
          for metric in CONTRACT["per_layer"]]


def _extra(name, unit, layer, moves):
    return {"name": name, "unit": unit, "better": "lower",
            **_note(layer, moves)}


#: Reported by the full run only: each exists on one workload or needs
#: two, while ``--workload`` runs must report every contract metric.
EXTRA_LAYERS = [
    _extra("serve.lookup_ns_per_frame", "ns", "serve.server demux",
           "pps.sequent on serve-loopback (little)"),
    _extra("serve.codec_ns_per_frame", "ns", "serve.protocol",
           "latency_* on serve-loopback"),
    _extra("serve.loop_us_per_frame", "us", "asyncio + sockets",
           "pps.* on serve-loopback"),
] + [
    _extra(f"churn.{op}_ns.{cfg}", "ns", "structure mutation vs lookup",
           f"pps.{cfg} on churn")
    for op in ("insert", "remove", "lookup") for cfg in CONFIGS
] + [
    _extra(f"ns_per_pcb.{cfg}", "ns", "cross-workload slope",
           "tests the paper's cost proxy: self ns per extra PCB examined,"
           " tpca-wide vs tpca-hot")
    for cfg in TIMED
]


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit 2.

    A copy of the benchmark without the program next to it must fail
    fast and print no result, and an installed ``repro`` elsewhere must
    never be measured in its place.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import repro from {SRC}: {exc}\n")
        raise SystemExit(2)
    origin = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.dirname(origin) != SRC:
        sys.stderr.write(
            f"bench: repro imported from {origin}, not from {SRC}\n"
        )
        raise SystemExit(2)
