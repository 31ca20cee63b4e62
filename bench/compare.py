"""Turn two sets of benchmark runs into a verdict, one row per workload.

    python3 bench/compare.py PARENT.json CHANGE.json

Each file holds one or more ``metrics.json`` documents written by
``run.py`` (``cat runs/parent-*/metrics.json > PARENT.json``).  Runs
pair up in file order; make at least ten pairs, alternating which side
runs first.  For every end-to-end metric of ``BENCHMARK.json``, and
serve-loopback's round trips (``spec.SERVE_E2E``):

* ``improved`` -- at least ten pairs, the change wins at least 9 in 10
  of them (ties count for neither side), and the medians differ by more
  than the parent's interquartile range;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` -- not regressed, but the run-to-run spread
  (interquartile range over median, measured from four runs a side) of
  either side is wider than the bound, and not every change run beats
  every parent run;
* ``within-bound`` -- otherwise.

More failed operations than the parent is a regression whatever the
timings say.  Runs from different hosts (``host`` fingerprints) or with
different workload parameters are refused: a baseline measured on one
machine says nothing about another.

Exit status: 0 no regression, 1 a regression, 2 refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Sequence

import spec

MIN_PAIRS = 10
WIN_SHARE = 0.9
MIN_SPREAD_RUNS = 4


def load_runs(path: str) -> List[dict]:
    """Every JSON document in ``path`` (concatenated or one per line)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    decoder = json.JSONDecoder()
    runs, index = [], 0
    while True:
        while index < len(text) and text[index].isspace():
            index += 1
        if index >= len(text):
            return runs
        document, index = decoder.raw_decode(text, index)
        runs.append(document)


def refusal(parent: Sequence[dict], change: Sequence[dict]) -> str:
    """Why the two sets cannot be compared, or '' when they can."""
    runs = list(parent) + list(change)
    if not parent or not change:
        return "each side needs at least one run"
    host = runs[0]["host"]
    for run in runs[1:]:
        if run["host"] != host:
            fields = sorted(
                key for key in set(host) | set(run["host"])
                if host.get(key) != run["host"].get(key)
            )
            return f"host fingerprints differ in {', '.join(fields)}"
    shape = {name: entry["params"] for name, entry in runs[0]["workloads"].items()}
    for run in runs[1:]:
        if {n: e["params"] for n, e in run["workloads"].items()} != shape:
            return "workload parameters differ (full vs --quick runs?)"
    return ""


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median across runs; 0 below four runs.

    Fewer runs give no quartiles, so only the medians are checked.
    """
    if len(values) < MIN_SPREAD_RUNS:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def judge(
    parent: Sequence[float],
    change: Sequence[float],
    parent_spread: float,
    change_spread: float,
    better: str,
    bound: float,
) -> Dict[str, object]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(parent), len(change))
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    wins = sum(
        1 for a, b in zip(parent, change) if sign * (b - a) > 0
    )
    gain = sign * (change_median - parent_median)
    worse_by = -gain / parent_median if parent_median else 0.0
    parent_iqr = 0.0
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        parent_iqr = q3 - q1
    every_run_better = min(sign * v for v in change) > max(
        sign * v for v in parent
    )
    if (
        pairs >= MIN_PAIRS
        and wins >= WIN_SHARE * pairs
        and gain > parent_iqr
    ):
        verdict = "improved"
    elif worse_by > bound:
        verdict = "regressed"
    elif max(parent_spread, change_spread) > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within-bound"
    return {
        "verdict": verdict,
        "parent": parent_median,
        "change": change_median,
        "delta": -worse_by,
        "wins": wins,
        "pairs": pairs,
    }


def compare(parent: List[dict], change: List[dict], metrics: List[dict]) -> dict:
    """Verdicts per workload and metric, plus failed-operation checks."""
    pairs = min(len(parent), len(change))
    parent, change = parent[:pairs], change[:pairs]
    table: Dict[str, dict] = {}
    for workload in parent[0]["workloads"]:
        row = {}
        for metric in metrics:
            name = metric["name"]
            if name not in parent[0]["workloads"][workload]["e2e"]:
                continue  # a serve-loopback-only metric
            values = [
                [run["workloads"][workload]["e2e"][name]["value"] for run in runs]
                for runs in (parent, change)
            ]
            row[name] = judge(
                values[0], values[1], spread(values[0]), spread(values[1]),
                metric["better"], metric["bound"],
            )
        failed = [
            sum(run["workloads"][workload]["failed"] for run in runs)
            for runs in (parent, change)
        ]
        row["failed"] = {
            "verdict": "regressed" if failed[1] > failed[0] else "within-bound",
            "parent": failed[0],
            "change": failed[1],
        }
        table[workload] = row
    return table


def render(table: dict, pairs: int) -> str:
    width = max(len(name) for name in table) + 2
    lines = [f"{pairs} pairs" + (
        "" if pairs >= MIN_PAIRS
        else f" (fewer than {MIN_PAIRS}: no gain can be claimed)"
    ) + (
        "" if pairs >= MIN_SPREAD_RUNS
        else f"; fewer than {MIN_SPREAD_RUNS}: spread not measured,"
        " only the medians are checked"
    )]
    for workload, row in table.items():
        lines.append(f"{workload:<{width}}" + "  ".join(
            f"{name} {cell['verdict']}" for name, cell in row.items()
        ))
    lines.append("")
    for workload, row in table.items():
        for name, cell in row.items():
            if name == "failed":
                continue
            lines.append(
                f"{workload:<{width}}{name:<18} parent {cell['parent']:.6g}"
                f"  change {cell['change']:.6g}  ({cell['delta']:+.1%},"
                f" change won {cell['wins']}/{cell['pairs']})"
                f"  {cell['verdict']}"
            )
        cell = row["failed"]
        lines.append(
            f"{workload:<{width}}{'failed':<18} parent {cell['parent']}"
            f"  change {cell['change']}  {cell['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    reason = refusal(parent, change)
    if reason:
        sys.stderr.write(f"compare: refused: {reason}\n")
        return 2
    table = compare(parent, change, spec.E2E + spec.SERVE_E2E)
    print(render(table, min(len(parent), len(change))))
    regressed = any(
        cell["verdict"] == "regressed"
        for row in table.values() for cell in row.values()
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
