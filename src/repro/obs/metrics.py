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
synthesizes the cumulative ``_bucket{le=...}`` series from the exact
counts.

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
import math
import re
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

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

#: Stable power-of-two edges used for every HTTP-exported histogram:
#: probe lengths are small integers, so these cover 1..1024 examined
#: PCBs with scrape-to-scrape-identical series.
DEFAULT_EXPORT_BUCKETS = tuple(float(2 ** i) for i in range(11))


def _validate_buckets(
    buckets: Optional[Sequence[float]],
) -> Optional[Tuple[float, ...]]:
    if buckets is None:
        return None
    edges = tuple(float(edge) for edge in buckets)
    if not edges:
        raise ValueError("bucket edges must be non-empty")
    for edge in edges:
        if not math.isfinite(edge):
            raise ValueError(
                "bucket edges must be finite (+Inf is implicit)"
            )
    if list(edges) != sorted(set(edges)):
        raise ValueError(
            f"bucket edges must be strictly increasing, got {edges}"
        )
    return edges


def _format_edge(edge: float) -> str:
    """Render a bucket edge the way Prometheus clients expect."""
    return f"{int(edge)}" if edge == int(edge) else f"{edge:g}"

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


def _parse_observed(value: str):
    """A snapshot's stringified observation key back to a number."""
    number = float(value)
    return int(number) if number.is_integer() else number


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

    # Subclasses provide: samples() -> iterable used by the exporters,
    # snapshot() -> JSON-ready dict, prometheus_lines() -> List[str].

    def _header_lines(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.metric_type}")
        return lines


class Counter(_Metric):
    """Monotonically increasing count, optionally labelled."""

    metric_type = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

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


class Gauge(_Metric):
    """A value that can go up and down (table sizes, maxima, config)."""

    metric_type = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

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


class Histogram(_Metric):
    """Distribution of integer-valued observations, exact counts.

    ``observe(value)`` increments the count for that exact value;
    ``observe_bulk`` folds in a pre-counted ``{value: count}`` mapping.
    """

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, help)
        self._counts: Dict[LabelKey, Dict[int, int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self.buckets = _validate_buckets(buckets)

    def observe(self, value: int, count: int = 1, **labels: Any) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._observe_key(_label_key(labels), value, count)

    def _observe_key(self, key: LabelKey, value, count: int) -> None:
        bucket = self._counts.setdefault(key, {})
        bucket[value] = bucket.get(value, 0) + count
        self._sums[key] = self._sums.get(key, 0) + value * count

    def observe_bulk(self, counts: Dict[int, int], **labels: Any) -> None:
        for value, count in counts.items():
            self.observe(value, count, **labels)

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
        snapshot = {
            "type": self.metric_type,
            "help": self.help,
            "samples": samples,
        }
        if self.buckets is not None:
            # Configured export boundaries survive the round trip, so
            # a registry rebuilt via from_snapshot renders the same
            # Prometheus series as the live one.
            snapshot["buckets"] = list(self.buckets)
        return snapshot

    def prometheus_lines(
        self, *, default_buckets: Optional[Sequence[float]] = None
    ) -> List[str]:
        """Prometheus rendering; fixed boundaries when configured.

        Historically the ``le`` labels were the exact observed values,
        which made bucket boundaries drift between scrapes -- two
        scrapes of the same histogram disagreed about which series
        exist, breaking Prometheus's cumulative-histogram model (rate()
        and quantile() need stable series).  When this histogram has
        ``buckets`` (or the caller supplies ``default_buckets``, as
        HTTP export does), the boundaries are those fixed edges plus
        ``+Inf`` -- identical on every scrape.  Without either, the
        exact-value rendering is kept for backward compatibility.
        JSON snapshots always carry the exact counts regardless.
        """
        bounds = self.buckets
        if bounds is None:
            bounds = _validate_buckets(default_buckets)
        lines = self._header_lines()
        for key in sorted(self._counts):
            counts = self._counts[key]
            if bounds is None:
                cumulative = 0
                for value in sorted(counts):
                    cumulative += counts[value]
                    lines.append(
                        f"{self.name}_bucket"
                        f"{_render_labels(key, ('le', str(value)))}"
                        f" {cumulative}"
                    )
            else:
                cumulative = 0
                ordered = sorted(counts.items())
                index = 0
                for edge in bounds:
                    while index < len(ordered) and ordered[index][0] <= edge:
                        cumulative += ordered[index][1]
                        index += 1
                    lines.append(
                        f"{self.name}_bucket"
                        f"{_render_labels(key, ('le', _format_edge(edge)))}"
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

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        histogram = self._get_or_create(Histogram, name, help)
        if buckets is not None:
            edges = _validate_buckets(buckets)
            if histogram.buckets is not None and histogram.buckets != edges:
                raise ValueError(
                    f"histogram {name!r} already has buckets"
                    f" {histogram.buckets}, not {edges}"
                )
            histogram.buckets = edges
        return histogram

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

    def to_prometheus(
        self, *, histogram_buckets: Optional[Sequence[float]] = None
    ) -> str:
        """Prometheus text exposition format (version 0.0.4).

        ``histogram_buckets`` supplies fixed ``le`` boundaries for any
        histogram that has none of its own -- the HTTP endpoint passes
        :data:`DEFAULT_EXPORT_BUCKETS` so scraped series never drift.
        """
        lines: List[str] = []
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                lines.extend(
                    metric.prometheus_lines(
                        default_buckets=histogram_buckets
                    )
                )
            else:
                lines.extend(metric.prometheus_lines())
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict.

        The inverse of ``snapshot()`` (and of a metrics.json file on
        disk): counters/gauges restore their sample values, histograms
        their exact counts, so watchdog rules and reports can run
        against recorded runs exactly as against live ones.
        """
        registry = cls()
        for name, data in snapshot.items():
            mtype = data.get("type")
            help_text = data.get("help", "")
            if mtype == "counter":
                counter = registry.counter(name, help_text)
                for sample in data.get("samples", []):
                    counter.inc(sample["value"], **sample["labels"])
            elif mtype == "gauge":
                gauge = registry.gauge(name, help_text)
                for sample in data.get("samples", []):
                    gauge.set(sample["value"], **sample["labels"])
            elif mtype == "histogram":
                buckets = data.get("buckets")
                histogram = registry.histogram(
                    name, help_text, buckets=buckets
                )
                for sample in data.get("samples", []):
                    # JSON stringifies the value keys; restore ints
                    # (the documented observation type) but tolerate a
                    # float key rather than crash on "2.5".
                    histogram.observe_bulk(
                        {
                            _parse_observed(value): count
                            for value, count in sample["counts"].items()
                        },
                        **sample["labels"],
                    )
            else:
                raise ValueError(
                    f"metric {name!r} has unknown type {mtype!r}"
                )
        return registry
