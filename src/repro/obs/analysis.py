"""Trace analytics: per-trace indexing, critical-path blame, tail sampling.

The per-request half of the ops plane — "why was **this** job slow":

- :class:`TraceIndex` — a bounded in-memory table that assembles the
  finished spans reaching it as a tracer sink into
  per-trace trees keyed by ``trace_id`` (schema ``repro-traceidx-1``),
  queryable by op, tenant, duration and error. Both facility halves
  land in one tree: in-process ICEs share the session tracer, and
  :meth:`TraceIndex.ingest` accepts remote span dicts (a flight-recorder
  dump, a JSONL file) merged by trace id exactly like
  :func:`~repro.obs.recorder.merge_snapshots`.
- :func:`critical_path` — walks a trace tree *backwards* from the root's
  end, attributing every instant of root wall time to the innermost
  span that was blocking right then (the last-finishing child wins at
  each step, which is what "blocking" means for synchronous RPC). The
  segments partition the root interval exactly, so the blame table's
  self-times sum to the root duration by construction.
- :class:`TraceSampler` — tail-based sampling. Spans buffer per trace
  until the root ends; traces with an error span, a slow root, or an
  SLO-style breach are always kept, and normal traces are kept at a
  per-tenant budgeted share (deterministic keep-one-in-N counters, with
  the tenant table folded into ``__overflow__`` under the same
  cardinality-cap rules as :class:`~repro.obs.metrics.MetricsRegistry`).
  Only *kept* traces reach the sampler's own sinks
  (:meth:`TraceSampler.add_sink`) — whatever is attached there (flight
  recorder, telemetry bus) never sees a dropped trace.

Everything here is passive and bounded: both attach as tracer sinks
(:meth:`~repro.obs.trace.Tracer.add_sink`), and both the index and the
sampler evict oldest-first under fixed caps.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Any, Callable, Iterable

from repro.clock import Clock, WALL
from repro.obs.metrics import OVERFLOW_VALUE, MetricsRegistry
from repro.obs.primitives import Fanout
from repro.obs.trace import Span, SpanStatus, Tracer

#: Schema tag stamped on every :meth:`TraceIndex.get` document.
SCHEMA = "repro-traceidx-1"

#: Tenant key used for spans that carry no ``tenant`` attribute.
UNTAGGED = "-"

#: Counter of traces evicted from a full :class:`TraceIndex` (oldest
#: first; the index is a recent-history device, not an archive).
INDEX_EVICTED_METRIC = "obs.trace.index_evicted_total"

#: Counter (labelled ``reason=error|slow|breach|budget``) of traces the
#: sampler kept and released to its sinks.
SAMPLER_KEPT_METRIC = "obs.trace.sampler_kept_total"

#: Counter (labelled ``reason=budget|overflow``) of traces the sampler
#: dropped — over-budget normal traces, or buffer-cap evictions.
SAMPLER_DROPPED_METRIC = "obs.trace.sampler_dropped_total"


def _as_dict(span: Any) -> dict[str, Any]:
    return span if isinstance(span, dict) else span.to_dict()


def _field(span: Any, name: str) -> Any:
    """One field of a :class:`Span` or of its dict form."""
    return span.get(name) if isinstance(span, dict) else getattr(span, name)


def _span_tenant(span: Any) -> str | None:
    attrs = _field(span, "attributes")
    if isinstance(attrs, dict):
        tenant = attrs.get("tenant")
        if isinstance(tenant, str) and tenant:
            return tenant
    return None


# --------------------------------------------------------------------------
# Critical-path extraction
# --------------------------------------------------------------------------
def critical_path(spans: Iterable[Any]) -> dict[str, Any] | None:
    """Blame table for one trace: who was blocking, for how long.

    ``spans`` is any mix of :class:`~repro.obs.trace.Span` objects and
    span dicts belonging to one trace (client and daemon halves merged
    by trace id — orphan parents are tolerated, the widest rooted
    subtree wins). The walk runs backwards from the root's end time: at
    every instant the *last-finishing overlapping child* is the one the
    parent was blocked on, so the interval is attributed to that child's
    own critical path; gaps between children are the parent's self-time.
    Child intervals are clamped to their parent's, which keeps minor
    cross-process clock skew from double-counting.

    Returns ``None`` when no ended root span exists, otherwise::

        {"schema": ..., "trace_id": ..., "root": <root op>,
         "root_duration_s": ..., "coverage": <self-time sum / root>,
         "segments": [{"op", "service", "start", "end", "self_s"}, ...],
         "blame": [{"op", "service", "self_s", "pct", "count"}, ...]}

    ``blame`` is sorted worst-first and its ``self_s`` values sum to the
    root duration (``coverage`` ~= 1.0) by construction.
    """
    norm = [_as_dict(s) for s in spans]
    norm = [
        s
        for s in norm
        if s.get("span_id") and s.get("end_time") is not None
    ]
    if not norm:
        return None
    by_id = {s["span_id"]: s for s in norm}
    children: dict[str, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    for s in norm:
        parent_id = s.get("parent_id")
        if parent_id and parent_id in by_id:
            children.setdefault(parent_id, []).append(s)
        else:
            # true root, or an orphan whose parent never arrived — the
            # same "…" tolerance as exporters.trace_tree
            roots.append(s)
    root = max(
        roots, key=lambda s: float(s["end_time"]) - float(s["start_time"])
    )
    root_start = float(root["start_time"])
    root_end = float(root["end_time"])
    segments: list[dict[str, Any]] = []
    _attribute(root, root_start, root_end, children, segments)
    segments.sort(key=lambda seg: seg["start"])

    blame: dict[tuple[str, str], dict[str, Any]] = {}
    for seg in segments:
        key = (seg["op"], seg["service"])
        row = blame.get(key)
        if row is None:
            row = {
                "op": seg["op"],
                "service": seg["service"],
                "self_s": 0.0,
                "count": 0,
            }
            blame[key] = row
        row["self_s"] += seg["self_s"]
        row["count"] += 1
    duration = max(root_end - root_start, 0.0)
    rows = sorted(blame.values(), key=lambda r: -r["self_s"])
    for row in rows:
        row["pct"] = (100.0 * row["self_s"] / duration) if duration > 0 else 0.0
    covered = sum(seg["self_s"] for seg in segments)
    return {
        "schema": SCHEMA,
        "trace_id": root.get("trace_id"),
        "root": root.get("name"),
        "root_duration_s": duration,
        "coverage": (covered / duration) if duration > 0 else 0.0,
        "span_count": len(norm),
        "segments": segments,
        "blame": rows,
    }


def _attribute(
    span: dict[str, Any],
    lo: float,
    hi: float,
    children: dict[str, list[dict[str, Any]]],
    segments: list[dict[str, Any]],
) -> None:
    """Attribute the interval ``[lo, hi]`` of ``span``'s wall time.

    Backward sweep: children sorted by end time descending; the stretch
    between a child's end and the cursor is the parent's own self-time,
    the child's interval recurses into the child's subtree.
    """
    if hi - lo <= 0.0:
        return
    cursor = hi
    kids = [
        c
        for c in children.get(span["span_id"], ())
        if c.get("end_time") is not None
    ]
    kids.sort(key=lambda c: float(c["end_time"]), reverse=True)
    for child in kids:
        child_end = min(float(child["end_time"]), cursor)
        child_start = max(float(child["start_time"]), lo)
        if child_end <= lo or child_end <= child_start:
            continue
        if child_end < cursor:
            segments.append(_segment(span, child_end, cursor))
        _attribute(child, child_start, child_end, children, segments)
        cursor = child_start
        if cursor <= lo:
            break
    if cursor > lo:
        segments.append(_segment(span, lo, cursor))


def _segment(span: dict[str, Any], start: float, end: float) -> dict[str, Any]:
    attrs = span.get("attributes")
    service = ""
    if isinstance(attrs, dict):
        service = str(attrs.get("service", "") or "")
    return {
        "op": span.get("name", "?"),
        "service": service,
        "span_id": span.get("span_id"),
        "start": start,
        "end": end,
        "self_s": end - start,
    }


def format_blame(result: dict[str, Any], top: int = 15) -> str:
    """Console rendering of a :func:`critical_path` result."""
    trace_id = result.get("trace_id") or "?"
    duration = result.get("root_duration_s", 0.0)
    lines = [
        f"trace {trace_id}  root={result.get('root', '?')}  "
        f"duration={duration:.3f}s  spans={result.get('span_count', 0)}  "
        f"coverage={result.get('coverage', 0.0) * 100.0:.1f}%",
        f"  {'op':<36} {'service':<12} {'self_s':>9} {'%root':>6} {'segs':>5}",
    ]
    for row in result.get("blame", [])[:top]:
        lines.append(
            f"  {row['op']:<36} {row['service']:<12} "
            f"{row['self_s']:>9.3f} {row['pct']:>6.1f} {row['count']:>5}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# The bounded trace index
# --------------------------------------------------------------------------
class TraceIndex:
    """Assembles finished spans into queryable per-trace trees.

    A span is kept as it arrived (a :class:`Span`, or a dict from
    :meth:`ingest`) and turned into its dict form when read.

    Args:
        max_traces: bound on retained traces. The oldest (by first-span
            arrival) are evicted first, in blocks: a new trace past the
            bound evicts down to 7/8 of it, so the eviction counter
            ``obs.trace.index_evicted_total`` is written once per block
            rather than once per new trace.
        clock: stamp source for :meth:`get` documents.
        metrics: optional registry for the eviction counter.
    """

    def __init__(
        self,
        max_traces: int = 512,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        self.max_traces = max_traces
        self.clock = clock or WALL
        self.metrics = metrics
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, dict[str, Any]]" = OrderedDict()

    # -- feeding ------------------------------------------------------------
    def attach(self, tracer: Tracer) -> Callable[[], None]:
        """Index every span ``tracer`` finishes; returns a remove callable."""
        return tracer.add_sink(self.add_span)

    def add_span(self, span: Any) -> None:
        """Index one finished span (a :class:`Span` or its dict form)."""
        if isinstance(span, dict):
            trace_id, status, parent_id = (
                span.get("trace_id"),
                span.get("status"),
                span.get("parent_id"),
            )
        else:
            trace_id, status, parent_id = span.trace_id, span.status, span.parent_id
        if not isinstance(trace_id, str) or not trace_id:
            return
        evicted = 0
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                record = {"spans": [], "error": False, "root": None}
                self._traces[trace_id] = record
                if len(self._traces) > self.max_traces:
                    keep = self.max_traces - self.max_traces // 8
                    while len(self._traces) > keep:
                        self._traces.popitem(last=False)
                        evicted += 1
            record["spans"].append(span)
            if status == SpanStatus.ERROR:
                record["error"] = True
            if parent_id is None:
                record["root"] = span
        if evicted and self.metrics is not None:
            self.metrics.counter(
                INDEX_EVICTED_METRIC,
                "traces evicted from the bounded trace index",
            ).inc(evicted)

    def ingest(
        self, spans: Iterable[Any], service: str | None = None
    ) -> int:
        """Merge remote span dicts (a recorder dump half, a JSONL file).

        The capturing half's ``service`` stamp is authoritative when the
        span carries none — the same convention as
        :func:`~repro.obs.recorder.merge_snapshots`. Returns how many
        spans were indexed.
        """
        count = 0
        for span in spans:
            doc = dict(_as_dict(span))
            if service:
                attrs = dict(doc.get("attributes") or {})
                attrs.setdefault("service", service)
                doc["attributes"] = attrs
            self.add_span(doc)
            count += 1
        return count

    # -- queries ------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def spans(self, trace_id: str) -> list[dict[str, Any]]:
        """The trace's span dicts in start-time order (empty if unknown)."""
        with self._lock:
            record = self._traces.get(trace_id)
            spans = [_as_dict(s) for s in record["spans"]] if record else []
        spans.sort(key=lambda s: float(s.get("start_time") or 0.0))
        return spans

    def _summary_locked(
        self, trace_id: str, record: dict[str, Any]
    ) -> dict[str, Any]:
        root = record["root"]
        tenants = sorted(
            {t for t in (_span_tenant(s) for s in record["spans"]) if t}
        )
        duration = 0.0
        if root is not None and _field(root, "end_time") is not None:
            duration = max(
                0.0,
                float(_field(root, "end_time")) - float(_field(root, "start_time")),
            )
        return {
            "trace_id": trace_id,
            "root": _field(root, "name") if root is not None else None,
            "duration_s": duration,
            "span_count": len(record["spans"]),
            "error": record["error"],
            "tenants": tenants,
            "started_at": (
                float(_field(root, "start_time")) if root is not None else None
            ),
        }

    def get(self, trace_id: str) -> dict[str, Any] | None:
        """Full ``repro-traceidx-1`` document for one trace, or None."""
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                return None
            summary = self._summary_locked(trace_id, record)
        return {
            "schema": SCHEMA,
            "captured_at": self.clock.now(),
            **summary,
            "spans": self.spans(trace_id),
        }

    def query(
        self,
        op: str | None = None,
        tenant: str | None = None,
        min_duration_s: float | None = None,
        error: bool | None = None,
        limit: int = 64,
    ) -> list[dict[str, Any]]:
        """Trace summaries matching every given filter, newest first.

        ``op`` matches any span name prefix in the trace; ``tenant``
        matches the span-attribute tenant; ``min_duration_s`` and
        ``error`` judge the root span / trace flags.
        """
        with self._lock:
            items = [
                (tid, {"spans": list(r["spans"]), "error": r["error"], "root": r["root"]})
                for tid, r in self._traces.items()
            ]
        out: list[dict[str, Any]] = []
        for trace_id, record in reversed(items):
            if op is not None and not any(
                str(_field(s, "name") or "").startswith(op) for s in record["spans"]
            ):
                continue
            if error is not None and record["error"] != error:
                continue
            summary = self._summary_locked(trace_id, record)
            if tenant is not None and tenant not in summary["tenants"]:
                continue
            if (
                min_duration_s is not None
                and summary["duration_s"] < min_duration_s
            ):
                continue
            out.append(summary)
            if len(out) >= limit:
                break
        return out

    def explain(self, trace_id: str) -> dict[str, Any] | None:
        """:func:`critical_path` over one indexed trace (None if unknown)."""
        spans = self.spans(trace_id)
        if not spans:
            return None
        return critical_path(spans)


# --------------------------------------------------------------------------
# Tail-based sampling
# --------------------------------------------------------------------------
class TraceSampler:
    """Buffers whole traces and releases only the ones worth keeping.

    Head sampling decides before the interesting part happens; tail
    sampling waits for the root span to end and judges the *whole*
    trace: any error span, a root slower than ``slow_threshold_s``, or
    a ``breach`` verdict always keeps the trace, and normal traces are
    kept at ``budget`` (a fraction) per tenant via deterministic
    counters — the k-th normal trace of a tenant is kept exactly when
    ``kept/seen`` would stay at or under the budget, so keep rates
    converge on the budget without randomness.

    :meth:`attach` makes the sampler a tracer sink; consumers added with
    :meth:`add_sink` (flight recorder, telemetry bus) see only kept
    traces, released in original end order once the verdict lands.

    The tenant counter table is capped at ``max_tenants`` — extra
    tenants fold into the shared ``__overflow__`` budget, mirroring the
    metrics registry's cardinality-cap rules — and the trace buffer at
    ``max_buffered`` traces (oldest dropped, counted as
    ``reason=overflow``).
    """

    def __init__(
        self,
        budget: float = 0.1,
        slow_threshold_s: float | None = 30.0,
        breach: Callable[[dict[str, Any]], bool] | None = None,
        metrics: MetricsRegistry | None = None,
        max_buffered: int = 512,
        max_tenants: int = 64,
        max_kept_ids: int = 1024,
    ):
        if not 0.0 <= budget <= 1.0:
            raise ValueError(f"budget must be in [0, 1], got {budget}")
        self.budget = budget
        self.slow_threshold_s = slow_threshold_s
        self.breach = breach
        self.metrics = metrics
        self.max_buffered = max_buffered
        self.max_tenants = max_tenants
        self._lock = threading.Lock()
        self._sinks = Fanout()
        #: trace_id -> buffered spans, insertion-ordered for eviction
        self._buffer: "OrderedDict[str, list[Any]]" = OrderedDict()
        #: recent verdicts, so stragglers ending after their root follow
        #: the trace's fate instead of buffering forever
        self._verdicts: "OrderedDict[str, bool]" = OrderedDict()
        #: per-tenant [seen, kept] budget counters
        self._tenant_counts: dict[str, list[int]] = {}
        self._kept_ids: deque[tuple[str, str]] = deque(maxlen=max_kept_ids)
        self._kept_set: set[str] = set()

    # -- attachment ---------------------------------------------------------
    def attach(self, tracer: Tracer) -> Callable[[], None]:
        """Judge every span ``tracer`` finishes; returns a remove callable."""
        return tracer.add_sink(self._intake)

    def add_sink(self, sink: Callable[[Any], None]) -> Callable[[], None]:
        """Call ``sink(span)`` with every span of every *kept* trace;
        returns a remove callable (the :meth:`Tracer.add_sink` contract)."""
        return self._sinks.add(sink)

    # -- span intake --------------------------------------------------------
    def _intake(self, span: Any) -> None:
        trace_id = getattr(span, "trace_id", None) or (
            span.get("trace_id") if isinstance(span, dict) else None
        )
        if not trace_id:
            return
        release: list[Any] | None = None
        kept = False
        reason = ""
        dropped_overflow = 0
        with self._lock:
            verdict = self._verdicts.get(trace_id)
            if verdict is not None:
                # late span of an already-judged trace: follow the verdict
                if verdict:
                    release, kept, reason = [span], True, "late"
            else:
                bucket = self._buffer.get(trace_id)
                if bucket is None:
                    bucket = []
                    self._buffer[trace_id] = bucket
                    while len(self._buffer) > self.max_buffered:
                        self._buffer.popitem(last=False)
                        dropped_overflow += 1
                bucket.append(span)
                if self._root_ended(span):
                    spans = self._buffer.pop(trace_id, [])
                    kept, reason = self._decide_locked(spans, span)
                    self._remember_verdict(trace_id, kept)
                    if kept:
                        release = spans
                        self._remember_kept(trace_id, self._trace_tenant(spans))
        if dropped_overflow and self.metrics is not None:
            self.metrics.counter(
                SAMPLER_DROPPED_METRIC, "traces dropped by the tail sampler"
            ).inc(dropped_overflow, reason="overflow")
        for item in release or ():
            self._sinks(item)
        if kept and reason != "late" and self.metrics is not None:
            self.metrics.counter(
                SAMPLER_KEPT_METRIC, "traces kept by the tail sampler"
            ).inc(reason=reason)
        if (
            not kept
            and release is None
            and reason
            and self.metrics is not None
        ):
            self.metrics.counter(
                SAMPLER_DROPPED_METRIC, "traces dropped by the tail sampler"
            ).inc(reason=reason)

    @staticmethod
    def _root_ended(span: Any) -> bool:
        parent_id = (
            span.get("parent_id")
            if isinstance(span, dict)
            else getattr(span, "parent_id", None)
        )
        return parent_id is None

    @staticmethod
    def _span_view(span: Any) -> dict[str, Any]:
        return span if isinstance(span, dict) else span.to_dict()

    def _trace_tenant(self, spans: list[Any]) -> str:
        for span in spans:
            tenant = _span_tenant(self._span_view(span))
            if tenant:
                return tenant
        return UNTAGGED

    def _decide_locked(
        self, spans: list[Any], root: Any
    ) -> tuple[bool, str]:
        views = [self._span_view(s) for s in spans]
        if any(v.get("status") == SpanStatus.ERROR for v in views):
            return True, "error"
        root_view = self._span_view(root)
        duration = float(root_view.get("duration_s") or 0.0)
        if (
            self.slow_threshold_s is not None
            and duration >= self.slow_threshold_s
        ):
            return True, "slow"
        if self.breach is not None:
            try:
                if self.breach(root_view):
                    return True, "breach"
            except Exception:  # noqa: BLE001 - policy hooks never break runs
                pass
        tenant = self._trace_tenant(spans)
        counts = self._tenant_counts.get(tenant)
        if counts is None:
            if len(self._tenant_counts) >= self.max_tenants:
                tenant = OVERFLOW_VALUE
                counts = self._tenant_counts.setdefault(tenant, [0, 0])
            else:
                counts = self._tenant_counts[tenant] = [0, 0]
        counts[0] += 1
        if self.budget > 0 and (counts[1] + 1) / counts[0] <= self.budget:
            counts[1] += 1
            return True, "budget"
        return False, "budget"

    def _remember_verdict(self, trace_id: str, kept: bool) -> None:
        self._verdicts[trace_id] = kept
        while len(self._verdicts) > 4096:
            self._verdicts.popitem(last=False)

    def _remember_kept(self, trace_id: str, tenant: str) -> None:
        if len(self._kept_ids) == self._kept_ids.maxlen:
            oldest = self._kept_ids[0]
            self._kept_set.discard(oldest[0])
        self._kept_ids.append((trace_id, tenant))
        self._kept_set.add(trace_id)

    # -- the kept set -------------------------------------------------------
    def is_kept(self, trace_id: str) -> bool:
        with self._lock:
            return trace_id in self._kept_set

    def kept_trace_ids(
        self, tenant: str | None = None, limit: int | None = None
    ) -> list[str]:
        """Kept trace ids, most recent first, optionally one tenant's."""
        with self._lock:
            items = list(self._kept_ids)
        out: list[str] = []
        for trace_id, owner in reversed(items):
            if tenant is not None and owner != tenant:
                continue
            out.append(trace_id)
            if limit is not None and len(out) >= limit:
                break
        return out

    # -- introspection ------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Per-tenant seen/kept counters plus buffer occupancy."""
        with self._lock:
            return {
                "budget": self.budget,
                "buffered_traces": len(self._buffer),
                "tenants": {
                    tenant: {"seen": c[0], "kept": c[1]}
                    for tenant, c in self._tenant_counts.items()
                },
            }

    def flush(self) -> int:
        """Drop traces still buffered (roots that never ended); returns
        how many were discarded. Called on session teardown."""
        with self._lock:
            count = len(self._buffer)
            self._buffer.clear()
        return count
