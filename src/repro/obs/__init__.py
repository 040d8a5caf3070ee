"""Observability: dependency-free tracing and metrics for the ICE.

The paper's cross-facility runs span a control channel (Pyro RPC), a
deliberately separate data channel (the CIFS share), and instrument
serial links — and the companion framework paper (arXiv:2307.06883)
stresses *per-segment* latency measurement across exactly that path.
This package is the measurement substrate:

- :mod:`repro.obs.trace` — spans (trace_id/span_id/parent_id) produced
  by a :class:`Tracer`, with context propagation both in-process (a
  contextvar) and across the control channel (a ``trace`` REQUEST
  field), so a workflow-task span on the DGX parents the daemon-side
  dispatch span and the instrument-command span at ACL;
- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and fixed-bucket histograms shared by every layer;
- :mod:`repro.obs.exporters` — JSONL span files, console tables, and
  the ``summarize`` API the benchmarks print;
- :mod:`repro.obs.health` — the :class:`HealthEngine` that turns the
  raw telemetry into per-subsystem healthy/degraded/unhealthy verdicts
  (``session.health()`` and the ``require_healthy=True`` gate);
- :mod:`repro.obs.recorder` — the :class:`FlightRecorder` black box
  dumped on safe-state teardowns, abnormal rounds, breaker trips and
  fleet-cell failures (schema ``repro-flightrec-1``);
- :mod:`repro.obs.stream` — the :class:`TelemetryBus` live feed
  (``session.stream()`` merges the dgx-session and acl-daemon halves;
  the daemon half is polled via ``Telemetry_Poll``);
- :mod:`repro.obs.profiler` — :func:`profiled` blocks and the
  self-time profile behind ``profile=True`` (schema ``repro-profile-1``);
- :mod:`repro.obs.baseline` — the :class:`BaselineStore` perf baselines
  feeding the ``perf`` health subsystem and ``BENCH_profile.json``;
- :mod:`repro.obs.timeseries` — the :class:`TimeSeriesStore` of
  fixed-memory multi-resolution rollup rings over the metric update
  stream (schema ``repro-tsdb-1``);
- :mod:`repro.obs.slo` — the :class:`SLOEngine` evaluating declarative
  per-tenant objectives with fast/slow burn-rate alert pairs (the
  ``slo`` health subsystem);
- :mod:`repro.obs.scrape` — the ``ACL_Observability`` service object and
  the :class:`ObsAggregator` merging N facilities' scrapes into the
  tenant-keyed view ``repro-ice top`` renders;
- :mod:`repro.obs.analysis` — the per-request half of the ops plane:
  the bounded :class:`TraceIndex` (schema ``repro-traceidx-1``),
  :func:`critical_path` blame extraction behind ``repro-ice explain``,
  and the tail-based :class:`TraceSampler` whose kept set feeds SLO
  alert exemplars;
- :mod:`repro.obs.primitives` — the :class:`Fanout` callback list and
  the :class:`CursorRing` behind every cursor poll.

Everything is optional and off by default: components accept
``tracer=None`` / ``metrics=None`` and skip all bookkeeping when unset,
so the untraced hot path stays untouched.
"""

from repro.obs.trace import (
    Span,
    SpanContext,
    SpanStatus,
    Tracer,
    child_span,
    current_span,
    extract_context,
    use_span,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    bucket_quantile,
)
from repro.obs.health import (
    HealthEngine,
    HealthReport,
    HealthThresholds,
    SubsystemHealth,
)
from repro.obs.recorder import (
    FlightRecorder,
    FlightRecorderServer,
    merge_snapshots,
)
from repro.obs.exporters import (
    ConsoleSpanExporter,
    JsonlSpanExporter,
    format_span_table,
    read_jsonl_spans,
    summarize_spans,
    trace_tree,
)
from repro.obs.stream import (
    SessionStream,
    TelemetryBus,
    TelemetryEvent,
    TelemetryServer,
    TelemetrySubscription,
)
from repro.obs.profiler import profile_spans, profiled
from repro.obs.baseline import BaselineStore
from repro.obs.timeseries import TimeSeriesStore, is_daemon_side_metric
from repro.obs.slo import SLOEngine, SLObjective, default_objectives
from repro.obs.scrape import ObsAggregator, ObservabilityServer, format_top
from repro.obs.analysis import (
    TraceIndex,
    TraceSampler,
    critical_path,
    format_blame,
)

__all__ = [
    "Span",
    "SpanContext",
    "SpanStatus",
    "Tracer",
    "child_span",
    "current_span",
    "extract_context",
    "use_span",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "bucket_quantile",
    "HealthEngine",
    "HealthReport",
    "HealthThresholds",
    "SubsystemHealth",
    "FlightRecorder",
    "FlightRecorderServer",
    "merge_snapshots",
    "ConsoleSpanExporter",
    "JsonlSpanExporter",
    "format_span_table",
    "read_jsonl_spans",
    "summarize_spans",
    "trace_tree",
    "SessionStream",
    "TelemetryBus",
    "TelemetryEvent",
    "TelemetryServer",
    "TelemetrySubscription",
    "profile_spans",
    "profiled",
    "BaselineStore",
    "TimeSeriesStore",
    "is_daemon_side_metric",
    "SLOEngine",
    "SLObjective",
    "default_objectives",
    "ObsAggregator",
    "ObservabilityServer",
    "format_top",
    "TraceIndex",
    "TraceSampler",
    "critical_path",
    "format_blame",
]
