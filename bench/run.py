"""The repository benchmark: interleaved workloads and a per-stage ledger.

Full run (all workloads, ``spec.ROUNDS`` interleaved rounds, then the
traced pass; prints every metric with its unit, median, IQR and sample
count, and writes ``metrics.json`` and ``trace.jsonl``)::

    PYTHONPATH=src python bench/run.py --seed 7 [--quick] [--out DIR]

One workload for a fixed time, ending with one JSON line -- the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics::

    python3 bench/run.py --workload tpca-hot --seed 3 --seconds 15 --trace 0

Exits 1 when any operation disagrees with the oracle, 2 when the
program cannot be imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import spec

DEFAULT_OUT = os.path.join(spec.BENCH_DIR, "out")


def _log(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.stderr.flush()


def _scratch_root(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def run_one(args) -> int:
    """One workload for ``--seconds``; the last stdout line is the result.

    ``--trace 0`` spends the time on interleaved timed rounds, ``--trace
    1`` on passes of the traced ledger.
    """
    import harness
    import ledger

    name = args.workload
    with tempfile.TemporaryDirectory(dir=_scratch_root(DEFAULT_OUT)) as scratch:
        runner = harness.make_workload(
            name, spec.WORKLOADS[name]["params"], args.seed, scratch
        )
        try:
            runner.prepare()
            if args.trace:
                layers, _extras, attempted, failed = ledger.run_ledger(
                    name, runner.stream, ledger.Spans(), scratch,
                    runner.signatures, seconds=args.seconds,
                )
                failed += runner.finish()
                values = {m["name"]: (layers[m["name"]], m["unit"])
                          for m in spec.LAYERS}
                done = "traced"
            else:
                results, rounds = harness.run_rounds(
                    [runner], seconds=args.seconds
                )
                cells = {config: results[(name, config)]
                         for config in spec.CONFIGS}
                attempted = sum(c.ops for runs in cells.values() for c in runs)
                failed = sum(c.failed for runs in cells.values() for c in runs)
                failed += runner.finish()
                reference = results[harness.REFERENCE]
                _log(f"host factor {harness.host_factor(reference):.4f}")
                e2e = harness.e2e_metrics(
                    cells, runner.setup_samples, runner.mem_bytes(),
                    runner.concurrency, reference,
                )
                values = {m["name"]: (e2e[m["name"]]["value"], m["unit"])
                          for m in spec.E2E}
                done = f"{rounds} rounds"
        finally:
            runner.close()
    print(f"{name}: {done}, {attempted} operations, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in values.items()
        },
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, interleaved, then the traced pass; writes files."""
    import harness
    import ledger

    out = _scratch_root(args.out or DEFAULT_OUT)
    rounds = spec.QUICK_ROUNDS if args.quick else spec.ROUNDS
    variant = "quick" if args.quick else "params"
    host = harness.fingerprint()
    started = time.perf_counter()
    report = {
        "host": host,
        "seed": args.seed,
        "quick": args.quick,
        "rounds": rounds,
        "command": spec.QUICK_COMMAND if args.quick else spec.COMMAND,
        "workloads": {},
    }
    spans = ledger.Spans()
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        runners = [
            harness.make_workload(
                name, spec.WORKLOADS[name][variant], args.seed, scratch
            )
            for name in spec.ALL_WORKLOADS
        ]
        try:
            for runner in runners:
                _log(f"preparing {runner.name}")
                runner.prepare()
            results, done = harness.run_rounds(
                runners, rounds=rounds, progress=_log,
            )
            reference = results[harness.REFERENCE]
            factor = report["host_factor"] = harness.host_factor(reference)
            for runner in runners:
                cells = {
                    config: results[(runner.name, config)]
                    for config in spec.CONFIGS
                }
                entry = {
                    "params": runner.params,
                    "attempted": sum(
                        c.ops for runs in cells.values() for c in runs
                    ),
                    "failed": sum(
                        c.failed for runs in cells.values() for c in runs
                    ) + runner.finish(),
                }
                _log(f"traced pass: {runner.name}")
                entry["e2e"] = harness.e2e_metrics(
                    cells, runner.setup_samples, runner.mem_bytes(),
                    runner.concurrency, reference,
                )
                if runner.name == "serve-loopback":
                    entry["e2e"].update(
                        harness.rtt_metrics(cells["sequent"], factor)
                    )
                layers, extras, checked, failed = ledger.run_ledger(
                    runner.name, runner.stream, spans, scratch,
                    runner.signatures,
                )
                entry["attempted"] += checked
                entry["failed"] += failed
                if runner.name == "serve-loopback":
                    stages, failed = runner.probe_stages()
                    extras.update(stages)
                    entry["failed"] += failed
                entry["error_rate"] = entry["failed"] / entry["attempted"]
                entry["layers"] = layers
                entry["extras"] = extras
                report["workloads"][runner.name] = entry
        finally:
            for runner in runners:
                runner.close()
    report["cross"] = _cross(report["workloads"])
    report["seconds"] = time.perf_counter() - started
    report["definitions"] = {
        "workloads": spec.WORKLOADS,
        "e2e": spec.E2E + spec.SERVE_E2E,
        "layers": spec.LAYERS + spec.EXTRA_LAYERS,
    }
    _write(out, report, spans)
    print(_render(report))
    failed = sum(entry["failed"] for entry in report["workloads"].values())
    return 0 if failed == 0 else 1


def _cross(entries: dict) -> dict:
    """ns per PCB examined: the self-time slope from tpca-hot to tpca-wide.

    The paper prices a lookup in PCBs examined; this is what one more
    examined PCB costs here.  ``None`` where examined does not move
    between the two workloads (cuckoo), so no slope exists.
    """
    out = {}
    hot = entries["tpca-hot"]["layers"]
    wide = entries["tpca-wide"]["layers"]
    for config in spec.TIMED:
        delta = wide[f"examined.mean.{config}"] - hot[f"examined.mean.{config}"]
        cost = (
            wide[f"lookup.self_ns_per_pkt.{config}"]
            - hot[f"lookup.self_ns_per_pkt.{config}"]
        )
        out[f"ns_per_pcb.{config}"] = cost / delta if abs(delta) >= 1 else None
    return out


def _write(out: str, report: dict, spans) -> None:
    with open(os.path.join(out, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out, "trace.jsonl"), "w", encoding="utf-8") as fh:
        for record in sorted(spans.records, key=lambda r: r["id"]):
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def _render(report: dict) -> str:
    host = report["host"]
    lines = [
        f"host: {host['cpu']}, nproc={host['nproc']},"
        f" python {host['python']}, numpy {host['numpy']},"
        f" {host['platform']}",
        f"seed {report['seed']}, {report['rounds']} interleaved rounds,"
        f" {report['seconds']:.0f} s, host factor"
        f" {report['host_factor']:.4f} (the reference kernel's time over"
        " its reference; throughputs are multiplied by it)",
    ]
    for name, entry in report["workloads"].items():
        lines.append("")
        lines.append(
            f"== {name}: {entry['attempted']:,} operations,"
            f" {entry['failed']} failed,"
            f" error_rate {entry['error_rate']:.3g} failed/attempted"
        )
        for metric in spec.E2E + spec.SERVE_E2E:
            m = entry["e2e"].get(metric["name"])
            if m is None:
                continue
            calls = f", {m['samples']:,} calls" if "samples" in m else ""
            raw = f"  as timed {_fmt(m['raw'])}" if "raw" in m else ""
            lines.append(
                f"  {metric['name']:<24} {_fmt(m['value']):>14} {m['unit']:<6}"
                f" median {_fmt(m['median'])}  IQR {_fmt(m['iqr'])}"
                f"  n={m['n']}{calls}{raw}"
            )
        lines.append("  ledger (traced pass):")
        for layer in spec.LAYERS:
            lines.append(
                f"    {layer['name']:<36}"
                f" {_fmt(entry['layers'][layer['name']]):>12} {layer['unit']}"
            )
        for key, value in sorted(entry["extras"].items()):
            unit = next(
                l["unit"] for l in spec.EXTRA_LAYERS if l["name"] == key
            )
            lines.append(f"    {key:<36} {_fmt(value):>12} {unit}")
    lines.append("")
    lines.append("cross-workload:")
    for key, value in report["cross"].items():
        lines.append(f"  {key:<36} {_fmt(value):>12} ns")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="2 rounds on ~10^4 operations per cell")
    parser.add_argument("--out", help=f"output directory (default {DEFAULT_OUT})")
    parser.add_argument("--workload", choices=spec.ALL_WORKLOADS,
                        help="run one workload for --seconds")
    parser.add_argument("--seconds", type=float,
                        help="measuring time of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload and (args.seconds is None or args.seconds <= 0):
        parser.error("--workload needs a positive --seconds")
    spec.use_checkout_src()
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
