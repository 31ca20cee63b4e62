"""Observability layer: tracing, metrics, spans, sketches, live export.

This package is the *bottom* layer of the stack -- it imports nothing
from the rest of :mod:`repro` (pure stdlib), so :mod:`repro.core` can
emit into it without circular dependencies.  (Two exceptions, both
dependency-free leaves: :mod:`repro.obs.report`, a CLI-side renderer,
reuses ``repro.experiments.ascii_plot``, and :mod:`repro.obs.sketch`
checks keys against ``repro.packet.addresses.FourTuple`` for its
train detector's shortcut.)  The modules:

* :mod:`repro.obs.trace` -- per-event tracing (lookups, inserts,
  removes, simulator dispatch) into one sink: an in-memory ring
  buffer or a JSONL file.
* :mod:`repro.obs.metrics` -- named counters/gauges/histograms with
  JSON and Prometheus-text export (histograms on fixed bucket edges
  for scrape stability), and ``MetricsRegistry.publish``, which folds
  in any component's ``metrics()`` families.
* :mod:`repro.obs.profile` -- sampled ``perf_counter_ns`` timing of
  the lookup hot path.
* :mod:`repro.obs.spans` -- causal per-packet spans across layers
  (steer -> coalesce -> lookup -> deliver/drop, plus reaps), with a
  per-connection flight recorder and JSONL dumps.
* :mod:`repro.obs.sketch` -- streaming traffic characterization in
  fixed memory: P² quantiles, Space-Saving heavy
  hitters with a zipf-ness estimate, a packet-train detector, and
  HyperLogLog population / working-set estimators.
* :mod:`repro.obs.watchdog` -- SLO rules folded into an ok /
  degraded / failing health state.
* :mod:`repro.obs.live` -- the HTTP telemetry endpoint (``/metrics``,
  ``/snapshot.json``, ``/healthz``) served beside a running sim.
* :mod:`repro.obs.report` -- the ``obs-report`` ASCII dashboard.

See ``docs/observability.md`` for the probe API, sink protocol, export
formats, and the overhead budget.
"""

from .live import TelemetryServer
from .metrics import (
    Counter,
    DEFAULT_EXPORT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profile import (
    DEFAULT_SAMPLE_EVERY,
    LookupProfiler,
    ProfileReport,
)
from .sketch import (
    HyperLogLog,
    P2Quantile,
    SpaceSaving,
    TrafficCharacterizer,
    TrainDetector,
    WorkingSetEstimator,
)
from .spans import (
    DEFAULT_SPAN_SAMPLE_EVERY,
    FlightRecorder,
    PacketSpan,
    SpanCollector,
    SpanStage,
    write_spans_jsonl,
)
from .trace import (
    JsonlSink,
    RingBufferSink,
    TraceEvent,
    TraceSink,
    Tracer,
    read_jsonl,
)
from .watchdog import (
    HealthReport,
    HealthWatchdog,
    RuleResult,
    SLORule,
    default_rules,
    parse_slo_spec,
)

__all__ = [
    "Counter",
    "DEFAULT_EXPORT_BUCKETS",
    "DEFAULT_SAMPLE_EVERY",
    "DEFAULT_SPAN_SAMPLE_EVERY",
    "FlightRecorder",
    "Gauge",
    "HealthReport",
    "HealthWatchdog",
    "Histogram",
    "HyperLogLog",
    "JsonlSink",
    "LookupProfiler",
    "MetricsRegistry",
    "P2Quantile",
    "PacketSpan",
    "ProfileReport",
    "RingBufferSink",
    "RuleResult",
    "SLORule",
    "SpaceSaving",
    "SpanCollector",
    "SpanStage",
    "TelemetryServer",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "TrafficCharacterizer",
    "TrainDetector",
    "WorkingSetEstimator",
    "default_rules",
    "parse_slo_spec",
    "read_jsonl",
    "write_spans_jsonl",
]
