"""Named metrics with JSON and Prometheus-text export.

A :class:`MetricsRegistry` holds counters, gauges, and histograms,
each optionally labelled (``registry.counter("demux_lookups_total")
.inc(1, algorithm="bsd", kind="data")``).  ``snapshot()`` renders the
whole registry as plain dicts, ``to_json()`` as a JSON document, and
``to_prometheus()`` as the Prometheus text exposition format, so a run
can publish its statistics to a file, a scrape endpoint, or a CI
artifact without bespoke formatting code.

Histograms record *exact* integer-valued observations (a dict from
value to count) rather than pre-binned buckets: probe-length
distributions are small integers and the paper's argument lives in
their tails, so no precision is given away.  The Prometheus rendering
folds the exact counts into cumulative ``_bucket{le=...}`` series on
the fixed :data:`DEFAULT_EXPORT_BUCKETS` edges.

Components export their numbers through one protocol: a *source* has
a ``metrics()`` method returning its metric families as plain data,
and :meth:`MetricsRegistry.publish` folds one source in.  Sources
report running totals; the registry turns them into monotonic
counters by *delta publishing* (each publish adds only what changed
since the last one), so a source's own counting convention stays
untouched.  The shape is plain tuples and dicts, so this module
imports none of its sources, preserving the obs-at-the-bottom
layering.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "Counter",
    "DEFAULT_EXPORT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The power-of-two edges every Prometheus histogram renders on:
#: probe lengths are small integers, so these cover 1..1024 examined
#: PCBs with scrape-to-scrape-identical series.
DEFAULT_EXPORT_BUCKETS = tuple(float(2 ** i) for i in range(11))

#: Canonical form of one label set: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]

#: One family as a source's ``metrics()`` reports it: ``(name, type,
#: help, samples)``, where ``type`` is ``"counter"``, ``"gauge"`` or
#: ``"histogram"`` and each sample is a ``(labels, value)`` pair.  A
#: counter's value is its running total, a histogram's a running
#: ``{value: count}`` map.
MetricFamily = Tuple[str, str, str, List[Tuple[Dict[str, Any], Any]]]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + inner + "}"


class _Metric:
    """Common name/help/samples bookkeeping for all metric types."""

    metric_type = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help

    # Subclasses provide snapshot() -> JSON-ready dict and
    # prometheus_lines() -> List[str].

    def _header_lines(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.metric_type}")
        return lines


class _Scalar(_Metric):
    """One number per label set: what counters and gauges share."""

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": self.metric_type,
            "help": self.help,
            "samples": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ],
        }

    def prometheus_lines(self) -> List[str]:
        lines = self._header_lines()
        for key, value in sorted(self._values.items()):
            lines.append(f"{self.name}{_render_labels(key)} {value:g}")
        return lines


class Counter(_Scalar):
    """Monotonically increasing count, optionally labelled."""

    metric_type = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount


class Gauge(_Scalar):
    """A value that can go up and down (table sizes, maxima, config)."""

    metric_type = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount


class Histogram(_Metric):
    """Distribution of integer-valued observations, exact counts.

    ``observe(value)`` increments the count for that exact value.
    """

    metric_type = "histogram"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._counts: Dict[LabelKey, Dict[int, int]] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: int, count: int = 1, **labels: Any) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._observe_key(_label_key(labels), value, count)

    def _observe_key(self, key: LabelKey, value, count: int) -> None:
        bucket = self._counts.setdefault(key, {})
        bucket[value] = bucket.get(value, 0) + count
        self._sums[key] = self._sums.get(key, 0) + value * count

    def counts(self, **labels: Any) -> Dict[int, int]:
        """Exact value -> count mapping for one label set (a copy)."""
        return dict(self._counts.get(_label_key(labels), {}))

    def count(self, **labels: Any) -> int:
        return sum(self._counts.get(_label_key(labels), {}).values())

    def sum(self, **labels: Any) -> float:
        return self._sums.get(_label_key(labels), 0)

    def mean(self, **labels: Any) -> float:
        total = self.count(**labels)
        return self.sum(**labels) / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        samples = []
        for key in sorted(self._counts):
            counts = self._counts[key]
            samples.append(
                {
                    "labels": dict(key),
                    "count": sum(counts.values()),
                    "sum": self._sums.get(key, 0),
                    "counts": {str(v): c for v, c in sorted(counts.items())},
                }
            )
        return {
            "type": self.metric_type,
            "help": self.help,
            "samples": samples,
        }

    def prometheus_lines(self) -> List[str]:
        """Prometheus rendering on :data:`DEFAULT_EXPORT_BUCKETS` plus
        ``+Inf``: the same ``le`` series on every scrape, which
        Prometheus's cumulative-histogram model (rate(), quantile())
        needs.  JSON snapshots keep the exact counts."""
        lines = self._header_lines()
        for key in sorted(self._counts):
            counts = self._counts[key]
            ordered = sorted(counts.items())
            cumulative = 0
            index = 0
            for edge in DEFAULT_EXPORT_BUCKETS:
                while index < len(ordered) and ordered[index][0] <= edge:
                    cumulative += ordered[index][1]
                    index += 1
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(key, ('le', str(int(edge))))}"
                    f" {cumulative}"
                )
            cumulative = sum(counts.values())
            lines.append(
                f"{self.name}_bucket"
                f"{_render_labels(key, ('le', '+Inf'))} {cumulative}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(key)} {self._sums.get(key, 0):g}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} {cumulative}")
        return lines


class _Published:
    """What the registry remembers of one source between publishes."""

    __slots__ = ("source", "totals", "gauges")

    def __init__(self, source: Any) -> None:
        #: Held so the source's ``id()`` cannot be reused by another.
        self.source = source
        #: Last running total per (family, label set).
        self.totals: Dict[Tuple[str, LabelKey], Any] = {}
        #: Gauge samples the last publish set.
        self.gauges: Set[Tuple[str, LabelKey]] = set()


def _went_back(total: Any, last: Any) -> bool:
    """Whether a running total (number or ``{value: count}``) shrank."""
    if isinstance(total, dict):
        return any(total.get(value, 0) < count for value, count in last.items())
    return total < last


class MetricsRegistry:
    """Get-or-create store of named metrics with whole-registry export."""

    _TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._published: Dict[Tuple[int, LabelKey], _Published] = {}

    def _get_or_create(self, cls, name: str, help: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as"
                    f" {existing.metric_type}, not {cls.metric_type}"
                )
            return existing
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)

    def publish(self, source: Any, **labels: Any) -> None:
        """Fold ``source.metrics()`` (a list of :data:`MetricFamily`) in.

        ``labels`` are added to every sample.  Gauges are set, and a
        gauge sample this source reported at its last publish but no
        longer reports is dropped.  Counters and histograms add what is
        new since the same sample's last publish.  When any total under
        one label set goes backwards (the source's statistics were
        reset), every total under that label set restarts from zero.
        A source published again under other ``labels`` is a new source.
        """
        extra = _label_key(labels)
        state = self._published.get((id(source), extra))
        if state is None:
            state = _Published(source)
            self._published[(id(source), extra)] = state
        totals: Dict[Tuple[str, LabelKey], Any] = {}
        gauges: Dict[Tuple[str, LabelKey], Any] = {}
        for name, mtype, help_text, samples in source.metrics():
            self._get_or_create(self._TYPES[mtype], name, help_text)
            into = gauges if mtype == "gauge" else totals
            for sample_labels, value in samples:
                key = _label_key({**sample_labels, **labels})
                into[(name, key)] = value

        restarted = {
            key
            for (name, key), total in totals.items()
            if (name, key) in state.totals
            and _went_back(total, state.totals[(name, key)])
        }
        for (name, key), total in totals.items():
            metric = self._metrics[name]
            last = None if key in restarted else state.totals.get((name, key))
            if isinstance(metric, Histogram):
                last = last or {}
                for value, count in total.items():
                    delta = count - last.get(value, 0)
                    if delta:
                        metric._observe_key(key, value, delta)
                total = dict(total)
            else:
                metric._values[key] = (
                    metric._values.get(key, 0) + total - (last or 0)
                )
            state.totals[(name, key)] = total

        for name, key in state.gauges.difference(gauges):
            self._metrics[name]._values.pop(key, None)
        for (name, key), value in gauges.items():
            self._metrics[name]._values[key] = value
        state.gauges = set(gauges)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[_Metric]:
        return iter(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as plain dicts (insertion order)."""
        return {name: metric.snapshot() for name, metric in self._metrics.items()}

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.prometheus_lines())
        return "\n".join(lines) + ("\n" if lines else "")
