"""Counters, gauges and fixed-bucket histograms for every layer.

Prometheus-flavoured but dependency-free: instruments are get-or-create
through a :class:`MetricsRegistry`, label sets are kwargs, and each
(name, labels) pair owns one scalar/bucket state guarded by a lock.
The registry is cheap enough to thread through the RPC hot path — one
dict lookup plus one locked float add per observation — and components
that are handed ``metrics=None`` skip even that.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator

from repro.obs.primitives import Fanout, Halves

#: Default latency buckets (seconds). Chosen for the paper's regimes:
#: sub-ms loopback RPC, ~35 ms ACL<->ORNL WAN RTT, multi-second CV
#: techniques and file-arrival waits.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

#: Label automatically attached to writes when a tenant is bound on the
#: calling context (see :mod:`repro.rpc.context`). Explicit ``tenant=``
#: kwargs always win over the ambient value.
TENANT_LABEL = "tenant"

#: Label *value* that absorbs writes once an instrument hits the
#: registry's per-metric label-set cap. Every label in the folded set is
#: replaced by this sentinel so the overflow series stays a single,
#: bounded bucket no matter how many distinct sets arrive.
OVERFLOW_VALUE = "__overflow__"

#: Metric names under this prefix are the registry's own bookkeeping;
#: they are exempt from tenant injection and the cardinality cap so the
#: guard cannot recurse into itself.
INTERNAL_METRIC_PREFIX = "obs.metrics."

#: Counter (labelled by ``metric=<name>``) counting writes folded into
#: the ``__overflow__`` series by the cardinality cap.
LABEL_OVERFLOW_METRIC = "obs.metrics.label_overflow_total"

#: Metric-name prefixes written on the *daemon* (facility) half of an
#: ICE. When one process hosts both halves on a shared registry,
#: :attr:`MetricsRegistry.halves` routes these writes to the facility
#: store and the rest to the session store, so an aggregator that
#: scrapes both never double-counts a write.
DAEMON_METRIC_PREFIXES: tuple[str, ...] = (
    "rpc.daemon.",
    "rpc.server.",
    "net.",
    "chaos.",
    "datachannel.share.",
    "durability.",
)


def is_daemon_side_metric(name: str) -> bool:
    return name.startswith(DAEMON_METRIC_PREFIXES)


_tenant_getter: Callable[[], str | None] | None = None


def _ambient_tenant() -> "str | None":
    """Tenant bound on the calling context, or None.

    Imported lazily: ``repro.obs`` must stay importable without pulling
    in the RPC package (which imports the daemon and proxy machinery at
    package-import time).
    """
    global _tenant_getter
    if _tenant_getter is None:
        try:
            from repro.rpc.context import current_tenant
        except ImportError:  # pragma: no cover - rpc package always ships
            _tenant_getter = lambda: None  # noqa: E731
        else:
            _tenant_getter = current_tenant
    return _tenant_getter()


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


#: Signature of a registry update listener:
#: ``listener(metric_name, kind, labels, value)`` where ``value`` is the
#: new counter/gauge reading or the observed histogram sample.
UpdateListener = Callable[[str, str, dict[str, Any], float], None]

#: Label key of one series: the sorted ``(label, str(value))`` pairs.
LabelKey = tuple[tuple[str, str], ...]


def bucket_quantile(
    buckets: tuple[float, ...],
    bucket_counts: list[int],
    count: int,
    q: float,
    minimum: float,
    maximum: float,
) -> float | None:
    """Estimate the ``q``-quantile from cumulative-style bucket counts.

    Prometheus-flavoured: find the bucket the rank lands in, then
    linearly interpolate between its lower and upper bounds. The result
    is clamped to the observed ``[minimum, maximum]`` so a
    single-observation histogram returns the observation rather than a
    bucket bound, and a rank that falls in the +Inf overflow bucket
    returns the observed maximum (the only honest point estimate there).

    Shared by :meth:`Histogram.quantile` and callers that first merge
    several label sets' bucket counts into one distribution (the health
    engine's aggregate p95).

    Returns None when ``count`` is zero; raises on q outside [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if count <= 0:
        return None
    if q == 0.0:
        return minimum
    if q == 1.0:
        return maximum
    rank = q * count
    cumulative = 0
    lower = 0.0
    for i, bound in enumerate(buckets):
        in_bucket = bucket_counts[i]
        if in_bucket and cumulative + in_bucket >= rank:
            fraction = (rank - cumulative) / in_bucket
            estimate = lower + (bound - lower) * fraction
            return min(max(estimate, minimum), maximum)
        cumulative += in_bucket
        lower = bound
    return maximum


class _Instrument:
    """Shared plumbing: per-label-set state behind one lock."""

    kind = "instrument"

    def __init__(self, name: str, description: str = ""):
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._series: dict[tuple[tuple[str, str], ...], Any] = {}
        self._registry: "MetricsRegistry | None" = None

    def _notify(self, key: LabelKey, labels: dict[str, Any], value: float) -> None:
        """Hand one write to the owning registry's half consumers
        (``halves.route(name, metric, key, labels, value)``), then to its
        update listeners.

        Called *after* the instrument lock is released so a consumer that
        itself touches metrics (the telemetry bus does) cannot deadlock.
        """
        registry = self._registry
        if registry is not None:
            registry.halves.route(self.name, self, key, labels, value)
            if registry._listeners.fns:
                registry._listeners(self.name, self.kind, labels, value)

    def _new_state(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def _labels_for_write(self, labels: dict[str, Any]) -> dict[str, Any]:
        """Attach the ambient tenant label to a write's label set.

        No-ops when the registry has tenant attribution disabled, the
        caller already passed an explicit ``tenant=``, the metric is
        registry bookkeeping, or no tenant is bound on this context.
        """
        registry = self._registry
        if registry is None or not registry.tenant_labels:
            return labels
        if TENANT_LABEL in labels or self.name.startswith(INTERNAL_METRIC_PREFIX):
            return labels
        tenant = _ambient_tenant()
        if tenant is None:
            return labels
        labels = dict(labels)
        labels[TENANT_LABEL] = tenant
        return labels

    def _state(self, labels: dict[str, Any]) -> Any:
        key = _label_key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._new_state()
            self._series[key] = state
        return state

    def _locate(
        self, labels: dict[str, Any]
    ) -> tuple[Any, LabelKey, dict[str, Any], bool]:
        """Resolve ``labels`` to a series under the cardinality cap.

        Called with the instrument lock held. Returns ``(state, key,
        effective_labels, folded)``: when the write would create a label
        set beyond the registry's per-metric cap, it is folded into the
        ``__overflow__`` series instead (every label value replaced by
        the sentinel, keys preserved) and ``folded`` is True so the
        caller can count the fold *after* releasing the lock.
        """
        key = _label_key(labels)
        state = self._series.get(key)
        if state is not None:
            return state, key, labels, False
        registry = self._registry
        cap = registry.max_label_sets if registry is not None else None
        if (
            cap is not None
            and len(self._series) >= cap
            and not self.name.startswith(INTERNAL_METRIC_PREFIX)
        ):
            key = tuple((k, OVERFLOW_VALUE) for k, _ in key)
            labels = dict(key)
            state = self._series.get(key)
            if state is None:
                state = self._new_state()
                self._series[key] = state
            return state, key, labels, True
        state = self._new_state()
        self._series[key] = state
        return state, key, labels, False

    def _count_overflow(self) -> None:
        """Count one folded write. Called outside the instrument lock."""
        registry = self._registry
        if registry is not None:
            registry.counter(
                LABEL_OVERFLOW_METRIC,
                "metric writes folded into the __overflow__ series by "
                "the label-cardinality cap",
            ).inc(metric=self.name)

    def labels_seen(self) -> list[dict[str, str]]:
        with self._lock:
            return [dict(key) for key in self._series]

    def series(self) -> Iterator[tuple[dict[str, str], Any]]:
        with self._lock:
            items = list(self._series.items())
        for key, state in items:
            yield dict(key), state


class Counter(_Instrument):
    """Monotonically increasing count (events, bytes, retries)."""

    kind = "counter"

    def _new_state(self) -> list[float]:
        return [0.0]

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("Counter can only increase")
        labels = self._labels_for_write(labels)
        with self._lock:
            state, key, labels, folded = self._locate(labels)
            state[0] += amount
            value = state[0]
        if folded:
            self._count_overflow()
        self._notify(key, labels, value)

    def value(self, **labels: Any) -> float:
        with self._lock:
            state = self._series.get(_label_key(labels))
            return state[0] if state else 0.0

    def total(self) -> float:
        """Sum across every label set."""
        with self._lock:
            return sum(state[0] for state in self._series.values())


class Gauge(_Instrument):
    """Point-in-time value (breaker state, link RTT, queue depth)."""

    kind = "gauge"

    def _new_state(self) -> list[float]:
        return [0.0]

    def set(self, value: float, **labels: Any) -> None:
        labels = self._labels_for_write(labels)
        with self._lock:
            state, key, labels, folded = self._locate(labels)
            state[0] = float(value)
        if folded:
            self._count_overflow()
        self._notify(key, labels, float(value))

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        labels = self._labels_for_write(labels)
        with self._lock:
            state, key, labels, folded = self._locate(labels)
            state[0] += amount
            value = state[0]
        if folded:
            self._count_overflow()
        self._notify(key, labels, value)

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            state = self._series.get(_label_key(labels))
            return state[0] if state else 0.0


class _HistogramState:
    __slots__ = (
        "bucket_counts",
        "count",
        "total",
        "minimum",
        "maximum",
        "exemplars",
    )

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for +Inf overflow
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        #: bucket index -> {"trace_id", "value"}: the most recent traced
        #: observation per bucket (last-wins keeps it one dict per bucket)
        self.exemplars: dict[int, dict[str, Any]] = {}


class Histogram(_Instrument):
    """Fixed-bucket distribution — latency, sizes, arrival gaps.

    Buckets are cumulative-upper-bound style: an observation lands in
    the first bucket whose bound is >= the value, or the +Inf overflow.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: tuple[float, ...] = LATENCY_BUCKETS_S,
    ):
        super().__init__(name, description)
        self.buckets = tuple(sorted(buckets))

    def _new_state(self) -> _HistogramState:
        return _HistogramState(len(self.buckets))

    def observe(
        self, value: float, exemplar: str | None = None, **labels: Any
    ) -> None:
        """Record one observation.

        ``exemplar`` optionally links the observation to a trace: the
        trace_id of the span that produced it, kept per bucket
        (last-wins), so dashboards and SLO alerts can jump from "the
        p99 bucket" straight to a representative trace.
        """
        labels = self._labels_for_write(labels)
        with self._lock:
            state, key, labels, folded = self._locate(labels)
            idx = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    idx = i
                    break
            state.bucket_counts[idx] += 1
            state.count += 1
            state.total += value
            if value < state.minimum:
                state.minimum = value
            if value > state.maximum:
                state.maximum = value
            if exemplar:
                state.exemplars[idx] = {"trace_id": exemplar, "value": value}
        if folded:
            self._count_overflow()
        self._notify(key, labels, value)

    def snapshot(self, **labels: Any) -> dict[str, Any]:
        """Stats for one label set (zeros when never observed)."""
        with self._lock:
            state = self._series.get(_label_key(labels))
            if state is None or state.count == 0:
                return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
            return {
                "count": state.count,
                "sum": state.total,
                "mean": state.total / state.count,
                "min": state.minimum,
                "max": state.maximum,
                "buckets": {
                    str(bound): state.bucket_counts[i]
                    for i, bound in enumerate(self.buckets)
                }
                | {"+Inf": state.bucket_counts[-1]},
                "exemplars": {
                    self._bucket_name(idx): dict(ex)
                    for idx, ex in sorted(state.exemplars.items())
                },
            }

    def _bucket_name(self, idx: int) -> str:
        return str(self.buckets[idx]) if idx < len(self.buckets) else "+Inf"

    def exemplars(self, **labels: Any) -> list[dict[str, Any]]:
        """Every recorded bucket exemplar whose label set contains
        ``labels`` (pass none to scan all series). Each entry carries
        the series labels, the bucket upper bound and the exemplar's
        ``trace_id``/``value``.
        """
        wanted = {k: str(v) for k, v in labels.items()}
        out: list[dict[str, Any]] = []
        with self._lock:
            items = list(self._series.items())
        for key, state in items:
            series_labels = dict(key)
            if any(series_labels.get(k) != v for k, v in wanted.items()):
                continue
            for idx, ex in sorted(state.exemplars.items()):
                out.append(
                    {
                        "labels": series_labels,
                        "bucket": self._bucket_name(idx),
                        **ex,
                    }
                )
        return out

    def count(self, **labels: Any) -> int:
        with self._lock:
            state = self._series.get(_label_key(labels))
            return state.count if state else 0

    def quantile(self, q: float, **labels: Any) -> float | None:
        """Estimate the ``q``-quantile for one label set's distribution.

        Interpolated from the cumulative bucket counts (see
        :func:`bucket_quantile`); ``q=0``/``q=1`` return the observed
        min/max exactly. Returns None when nothing was observed.
        """
        with self._lock:
            state = self._series.get(_label_key(labels))
            if state is None:
                if not 0.0 <= q <= 1.0:
                    raise ValueError(f"q must be in [0, 1], got {q}")
                return None
            return bucket_quantile(
                self.buckets,
                state.bucket_counts,
                state.count,
                q,
                state.minimum,
                state.maximum,
            )


class MetricsRegistry:
    """Get-or-create home for every metric in a session.

    One registry is shared by the proxy, daemon, breaker, workflow and
    datachannel layers so ``session.metrics.summarize()`` sees the whole
    run. Re-registering a name returns the existing instrument (kind
    mismatch raises — that is always a programming error).

    Two registry-wide policies apply to every write:

    * **tenant attribution** (``tenant_labels=True``): when the calling
      context has a tenant bound (:func:`repro.rpc.context.current_tenant`
      — the gateway binds it around job execution, the daemon around
      each dispatch), a ``tenant=<id>`` label is attached automatically
      unless the caller passed one explicitly.
    * **cardinality cap** (``max_label_sets``): once an instrument holds
      that many distinct label sets, writes that would create a new one
      are folded into a single ``__overflow__`` series and counted on
      ``obs.metrics.label_overflow_total{metric=<name>}``. Pass ``None``
      to disable. Existing series are never evicted, so readers keep
      exact values for everything admitted before the cap.
    """

    def __init__(
        self,
        max_label_sets: int | None = 256,
        tenant_labels: bool = True,
    ):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Instrument] = {}
        self._listeners = Fanout()
        #: The session's and the daemon's store and bus take writes here,
        #: on ``halves.dgx`` / ``halves.acl``, as ``(metric, key, labels,
        #: value)``: one :data:`DAEMON_METRIC_PREFIXES` check per write
        #: routes it, and ``key`` is the series' label key.
        self.halves = Halves(is_daemon_side_metric)
        self.max_label_sets = max_label_sets
        self.tenant_labels = tenant_labels

    def _get_or_create(self, cls, name: str, description: str, **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, description, **kwargs)
            metric._registry = self
            self._metrics[name] = metric
            return metric

    # -- live update listeners ----------------------------------------------
    def add_update_listener(self, listener: "UpdateListener") -> Callable[[], None]:
        """Call ``listener(name, kind, labels, value)`` after every write.

        The hook for consumers that want every write by name (an
        exporter, a benchmark's write counter, a test); the time-series
        stores and :meth:`~repro.obs.stream.TelemetryBus.publish_metric`
        take writes from :attr:`halves` instead. Listeners run
        outside the instrument lock and must never raise (exceptions
        are swallowed — observability cannot break the operation it
        observes). Returns an unsubscribe callable.
        """
        return self._listeners.add(listener)

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: tuple[float, ...] = LATENCY_BUCKETS_S,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, description, buckets=buckets)

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- reporting ----------------------------------------------------------
    def summarize(self) -> dict[str, Any]:
        """Flat dict of every series: ``{name{label=value}: reading}``.

        Counters/gauges map to their float; histograms to their
        :meth:`Histogram.snapshot` minus the bucket detail.
        """
        out: dict[str, Any] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            for labels, state in metric.series():
                label_str = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                key = f"{metric.name}{{{label_str}}}" if label_str else metric.name
                if metric.kind == "histogram":
                    out[key] = {
                        "count": state.count,
                        "mean": (state.total / state.count) if state.count else 0.0,
                        "min": state.minimum if state.count else 0.0,
                        "max": state.maximum if state.count else 0.0,
                    }
                else:
                    out[key] = state[0]
        return out

    def format_table(self) -> str:
        """Console-friendly rendering of :meth:`summarize`."""
        summary = self.summarize()
        if not summary:
            return "(no metrics recorded)"
        width = max(len(k) for k in summary)
        lines = [f"{'metric'.ljust(width)}  value", f"{'-' * width}  {'-' * 5}"]
        for key in sorted(summary):
            reading = summary[key]
            if isinstance(reading, dict):
                rendered = (
                    f"count={reading['count']} mean={reading['mean']:.6f}s "
                    f"min={reading['min']:.6f}s max={reading['max']:.6f}s"
                )
            else:
                rendered = f"{reading:g}"
            lines.append(f"{key.ljust(width)}  {rendered}")
        return "\n".join(lines)
