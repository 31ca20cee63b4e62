"""The ``obs-report`` dashboard: metrics.json + span JSONL -> ASCII.

Renders one terminal-friendly page from artifacts a run left behind
(``simulate --metrics-out metrics.json --spans-out spans.jsonl``):
the run header, the demux cost summary, an ASCII plot of the
examined-count distribution, the streaming traffic characterization,
the drop taxonomy, the SLO watchdog's verdict (re-evaluated offline
with the same rules ``/healthz`` uses), and a span digest.  Everything
operates on plain snapshot dicts, so it works equally on a live
registry's ``snapshot()`` or a metrics.json read back from disk.

Imports: :func:`repro.experiments.ascii_plot.ascii_plot` is reused for
the distribution plot -- it is a dependency-free leaf module, so the
obs-at-the-bottom layering is not cycled.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from typing import Any, Dict, List, Optional, Sequence

from ..experiments.ascii_plot import ascii_plot
from .watchdog import HealthWatchdog, _samples, default_rules

__all__ = ["load_metrics_snapshot", "render_dashboard"]


def load_metrics_snapshot(path: object) -> Dict[str, Any]:
    """Read a metrics.json written by ``simulate --metrics-out``.

    Also accepts a saved ``/snapshot.json`` body (which nests the
    registry under a ``metrics`` key next to ``health``).
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    nested = data.get("metrics")
    if isinstance(nested, dict) and all(
        isinstance(v, dict) and "type" in v for v in nested.values()
    ):
        return nested
    return data


def _rule(width: int = 72) -> str:
    return "-" * width


def _section(title: str) -> List[str]:
    return ["", f"== {title} " + "=" * max(0, 68 - len(title))]


def _gauge_samples(snapshot, name):
    return _samples(snapshot, name, "gauge") or []


def _counter_samples(snapshot, name):
    return _samples(snapshot, name, "counter") or []


def _render_header(snapshot: Dict[str, Any]) -> List[str]:
    lines = ["repro observability report", _rule()]
    samples = _gauge_samples(snapshot, "sim_run")
    if samples:
        parts = []
        for sample in samples:
            name = sample["labels"].get("name", "")
            parts.append(f"{name}={sample['value']:g}")
        lines.append("run: " + "  ".join(sorted(parts)))
    return lines


def _render_demux(snapshot: Dict[str, Any]) -> List[str]:
    lookups = _counter_samples(snapshot, "demux_lookups_total")
    if not lookups:
        return []
    lines = _section("demux cost")
    examined = {
        tuple(sorted(s["labels"].items())): s["value"]
        for s in _counter_samples(snapshot, "demux_examined_total")
    }
    hits = {
        tuple(sorted(s["labels"].items())): s["value"]
        for s in _counter_samples(snapshot, "demux_cache_hits_total")
    }
    header = (
        f"  {'algorithm':<14} {'kind':<6} {'lookups':>10}"
        f" {'mean exam':>10} {'hit rate':>9}"
    )
    lines.append(header)
    for sample in lookups:
        labels = sample["labels"]
        key = tuple(sorted(labels.items()))
        count = sample["value"]
        mean = examined.get(key, 0) / count if count else 0.0
        hit = hits.get(key, 0) / count if count else 0.0
        lines.append(
            f"  {labels.get('algorithm', '?'):<14}"
            f" {labels.get('kind', '?'):<6}"
            f" {count:>10g} {mean:>10.2f} {hit:>8.1%}"
        )
    return lines


def _render_examined_plot(snapshot: Dict[str, Any]) -> List[str]:
    metric = snapshot.get("demux_examined")
    if not metric or metric.get("type") != "histogram":
        return []
    merged: Dict[int, int] = {}
    for sample in metric.get("samples", []):
        for value, count in sample.get("counts", {}).items():
            value = int(value)
            merged[value] = merged.get(value, 0) + count
    if not merged:
        return []
    xs = sorted(merged)
    lines = _section("examined-count distribution")
    lines.append(ascii_plot(
        [float(x) for x in xs],
        {"packets": [float(merged[x]) for x in xs]},
        width=64,
        height=12,
        title="PCBs examined per lookup",
        x_label="examined",
        y_label="packets",
    ))
    return lines


def _render_traffic(snapshot: Dict[str, Any]) -> List[str]:
    quantiles = _gauge_samples(snapshot, "traffic_examined_quantile")
    if not quantiles:
        return []
    lines = _section("traffic characterization (streaming sketches)")
    ordered = sorted(quantiles, key=lambda s: float(s["labels"]["q"]))
    lines.append("  examined quantiles: " + "  ".join(
        f"p{float(s['labels']['q']) * 100:g}={s['value']:g}"
        for s in ordered
    ))
    scalars = []
    for name, label in (
        ("traffic_skew", "zipf skew"),
        ("traffic_train_followers", "train followers"),
        ("traffic_trainness", "train-ness (ewma)"),
    ):
        samples = _gauge_samples(snapshot, name)
        if samples:
            scalars.append(f"{label}={samples[0]['value']:.3f}")
    if scalars:
        lines.append("  " + "  ".join(scalars))
    for sample in _gauge_samples(snapshot, "traffic_population"):
        lines.append(
            f"  population[{sample['labels'].get('scope', '?')}]"
            f" ~ {sample['value']:.0f} connections"
        )
    hitters = _gauge_samples(snapshot, "traffic_heavy_hitter_share")
    if hitters:
        lines.append("  heavy hitters (share of sampled packets):")
        # Rank by share, not by the recorded rank label: a snapshot
        # from an older writer may carry stale top-K samples.
        ordered = sorted(hitters, key=lambda s: -s["value"])
        for rank, sample in enumerate(ordered[:5], start=1):
            lines.append(
                f"    #{rank:<3}"
                f" {sample['value']:>7.2%}"
                f"  {sample['labels'].get('connection', '')}"
            )
    return lines


def _render_drops(snapshot: Dict[str, Any]) -> List[str]:
    drops = _counter_samples(snapshot, "packet_drops_total")
    if not drops:
        return []
    lines = _section("drop taxonomy")
    for sample in sorted(
        drops, key=lambda s: s["value"], reverse=True
    ):
        reason = sample["labels"].get("reason", "?")
        lines.append(f"  {reason:<18} {sample['value']:>10g}")
    return lines


def _render_health(snapshot: Dict[str, Any]) -> List[str]:
    report = HealthWatchdog(default_rules()).evaluate(snapshot)
    lines = _section("SLO watchdog")
    lines.append(f"  {report.describe()}")
    for result in report.results:
        lines.append(f"    {result.describe()}")
    return lines


def _render_spans(
    spans: Optional[Sequence[Dict[str, Any]]],
) -> List[str]:
    if not spans:
        return []
    lines = _section(f"packet spans ({len(spans)} recorded)")
    outcomes = TallyCounter(s.get("outcome", "?") for s in spans)
    lines.append("  outcomes: " + "  ".join(
        f"{outcome}={count}"
        for outcome, count in sorted(outcomes.items())
    ))
    stages = TallyCounter(
        stage.get("name", "?")
        for span in spans
        for stage in span.get("stages", [])
    )
    lines.append("  stages:   " + "  ".join(
        f"{name}={count}" for name, count in sorted(stages.items())
    ))

    def examined_of(span: Dict[str, Any]) -> int:
        for stage in span.get("stages", []):
            if stage.get("name") == "lookup":
                return stage.get("examined", 0)
        return 0

    costly = sorted(spans, key=examined_of, reverse=True)[:3]
    if costly and examined_of(costly[0]) > 0:
        lines.append("  costliest sampled packets:")
        for span in costly:
            tup = span.get("four_tuple")
            where = (
                f"{tup[0]}:{tup[1]} <- {tup[2]}:{tup[3]}"
                if tup else "<no tuple>"
            )
            lines.append(
                f"    #{span.get('span_id', '?'):<6}"
                f" examined={examined_of(span):<5}"
                f" {span.get('outcome', '?'):<10} {where}"
            )
    return lines


def render_dashboard(
    snapshot: Dict[str, Any],
    spans: Optional[Sequence[Dict[str, Any]]] = None,
) -> str:
    """One ASCII page from a metrics snapshot and optional span dump."""
    lines: List[str] = []
    lines.extend(_render_header(snapshot))
    lines.extend(_render_demux(snapshot))
    lines.extend(_render_examined_plot(snapshot))
    lines.extend(_render_traffic(snapshot))
    lines.extend(_render_drops(snapshot))
    lines.extend(_render_health(snapshot))
    lines.extend(_render_spans(spans))
    return "\n".join(lines) + "\n"
