"""Spans and tracers: who called what, where, and how long it took.

The model is deliberately small — a span is one timed operation with a
``trace_id`` shared by everything that happened on behalf of one logical
run, a ``span_id`` of its own, and a ``parent_id`` linking it to the
operation that caused it. Context propagates two ways:

- **in-process** through a :mod:`contextvars` variable, so a task span
  set current by the workflow engine automatically parents the RPC call
  spans made inside it (including across the per-connection threads of
  the daemon, each of which installs the remote parent explicitly);
- **across the control channel** through a ``trace`` field in the
  REQUEST body (see :func:`Tracer.inject` / :func:`extract_context` and
  ``docs/PROTOCOLS.md`` §1.2), so the daemon-side dispatch span carries
  the client span as its parent even though it lives in another process.

Timing runs on an injected :class:`~repro.clock.Clock`, which keeps
span durations deterministic under :class:`~repro.clock.VirtualClock`.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.clock import Clock, WALL
from repro.obs.primitives import Fanout, Halves

#: Name of the optional REQUEST-body field that carries trace context
#: across the control channel (alongside ``idem``).
WIRE_FIELD = "trace"

#: Span-name prefixes produced on the ACL (daemon) side of the control
#: channel. When one tracer serves both facilities in-process, these
#: decide which half a span belongs to (:attr:`Tracer.halves`).
DAEMON_SPAN_PREFIXES = ("rpc.dispatch.", "instrument.")

_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_current_span", default=None)


class SpanStatus:
    """Span outcome constants (string-valued for cheap JSON export)."""

    UNSET = "UNSET"
    OK = "OK"
    ERROR = "ERROR"


@dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: just the two ids."""

    trace_id: str
    span_id: str

    def to_wire(self) -> dict[str, str]:
        """Carrier dict for the ``trace`` REQUEST field."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}


def _new_trace_id() -> str:
    return os.urandom(16).hex()  # 32 hex chars, the entropy of uuid4()


def _new_span_id() -> str:
    return os.urandom(8).hex()  # 16 hex chars


def _daemon_side_name(name: str) -> bool:
    return name.startswith(DAEMON_SPAN_PREFIXES)


#: Sentinel distinguishing "no parent given, use the current span" from
#: an explicit ``parent=None`` (start a new root trace).
_UNSET = object()


class Span:
    """One timed operation inside a trace.

    Spans are created by a :class:`Tracer`; use them as context managers
    (``with tracer.start_as_current_span("x") as span:``) or call
    :meth:`end` explicitly. Attribute/event mutation after :meth:`end`
    is ignored rather than raised — observability must never take down
    the operation it observes.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_time",
        "end_time",
        "status",
        "attributes",
        "events",
        "tracer",
        "_token",
        "_ended",
        "_thread_cpu",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        start_time: float,
        tracer: "Tracer",
        attributes: dict[str, Any] | None = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_time = start_time
        self.end_time: float | None = None
        self.status = SpanStatus.UNSET
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self.events: list[dict[str, Any]] = []
        self.tracer = tracer
        self._token = None
        self._ended = False
        #: Started inside a profiled block: (thread id, thread CPU at start),
        #: then (thread id, CPU used; 0.0 if it ended on another thread).
        self._thread_cpu: tuple[int, float] | None = None

    # -- identity -----------------------------------------------------------
    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration_s(self) -> float:
        if self.end_time is None:
            return 0.0
        return max(0.0, self.end_time - self.start_time)

    @property
    def ended(self) -> bool:
        return self._ended

    # -- mutation -----------------------------------------------------------
    def set_attribute(self, key: str, value: Any) -> "Span":
        if not self._ended:
            self.attributes[key] = value
        return self

    def add_event(self, name: str, **attributes: Any) -> "Span":
        if not self._ended:
            self.events.append(
                {
                    "name": name,
                    "timestamp": self.tracer.clock.now(),
                    **({"attributes": attributes} if attributes else {}),
                }
            )
        return self

    def record_exception(self, exc: BaseException) -> "Span":
        self.add_event(
            "exception",
            error_type=type(exc).__name__,
            message=str(exc),
            code=getattr(exc, "code", None),
        )
        return self

    def end(self, status: str | None = None) -> None:
        """Finish the span: stamp the end time and hand it to the tracer."""
        if self._ended:
            return
        self._ended = True
        if status is not None:
            self.status = status
        elif self.status == SpanStatus.UNSET:
            self.status = SpanStatus.OK
        self.end_time = self.tracer.clock.now()
        if self._thread_cpu is not None:
            thread, cpu = self._thread_cpu
            self._thread_cpu = (
                thread,
                time.thread_time() - cpu if threading.get_ident() == thread else 0.0,
            )
        if self._token is not None:
            try:
                _CURRENT.reset(self._token)
            except ValueError:
                # ended on a different thread than it was made current on;
                # the owning context unwinds its own variable
                pass
            self._token = None
        self.tracer._on_end(self)

    # -- context-manager sugar ---------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.record_exception(exc)
            self.end(SpanStatus.ERROR)
        else:
            self.end()

    # -- export -------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": self.attributes,
            "events": self.events,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.trace_id[:8]}, "
            f"span={self.span_id[:8]}, parent="
            f"{self.parent_id[:8] if self.parent_id else None}, "
            f"status={self.status})"
        )


class Tracer:
    """Produces spans, retains the finished ones and hands each to its
    sinks, then to the consumers of its ICE half (:attr:`halves`).

    Args:
        service: label attached to every span (``service`` attribute),
            e.g. ``"dgx"`` or ``"acl-daemon"``; useful when client and
            daemon tracers export to separate files.
        clock: time source for start/end stamps.
        exporter: optional first sink (see :meth:`add_sink`), e.g. a
            :class:`~repro.obs.exporters.JsonlSpanExporter`.
        max_spans: bound on the in-memory finished-span buffer; the
            oldest spans fall off first (sinks still saw them).
    """

    def __init__(
        self,
        service: str = "",
        clock: Clock | None = None,
        exporter: Callable[[Span], None] | None = None,
        max_spans: int = 20000,
    ):
        self.service = service
        self.clock = clock or WALL
        self._sinks = Fanout()
        if exporter is not None:
            self._sinks.add(exporter)
        #: The session's and the daemon's recorder and bus take finished
        #: spans here, on ``halves.dgx`` / ``halves.acl``: one
        #: :data:`DAEMON_SPAN_PREFIXES` check per span routes it.
        self.halves = Halves(_daemon_side_name)
        #: Open :func:`~repro.obs.profiler.profiled` blocks; while any is
        #: open, new spans stamp their thread and thread CPU time.
        self._profiling = 0
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()

    # -- span creation ------------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: "Span | SpanContext | None" = _UNSET,  # type: ignore[assignment]
        attributes: dict[str, Any] | None = None,
    ) -> Span:
        """Create a span without touching the current-span context.

        ``parent`` defaults to the current span; pass an explicit
        :class:`Span`/:class:`SpanContext` (e.g. one extracted from the
        wire) or ``None`` to start a new root trace.
        """
        if parent is _UNSET:
            parent = _CURRENT.get()
        if parent is None:
            trace_id, parent_id = _new_trace_id(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=_new_span_id(),
            parent_id=parent_id,
            start_time=self.clock.now(),
            tracer=self,
            attributes=attributes,
        )
        if self.service:
            span.attributes.setdefault("service", self.service)
        if self._profiling:
            span._thread_cpu = (threading.get_ident(), time.thread_time())
        return span

    def start_as_current_span(
        self,
        name: str,
        parent: "Span | SpanContext | None" = _UNSET,  # type: ignore[assignment]
        attributes: dict[str, Any] | None = None,
    ) -> Span:
        """Like :meth:`start_span`, but also install the span as current.

        The contextvar is restored when the span ends, so the usual shape
        is ``with tracer.start_as_current_span("op"):``.
        """
        span = self.start_span(name, parent=parent, attributes=attributes)
        span._token = _CURRENT.set(span)
        return span

    # -- wire propagation ---------------------------------------------------
    def inject(self, span: Span | None = None) -> dict[str, str] | None:
        """Carrier dict for a REQUEST's ``trace`` field (None = nothing
        to propagate)."""
        target = span if span is not None else _CURRENT.get()
        if target is None:
            return None
        return target.context.to_wire()

    # -- retention and sinks ------------------------------------------------
    def add_sink(self, sink: Callable[[Span], None]) -> Callable[[], None]:
        """Call ``sink(span)`` with every finished span, after the sinks
        added before it; returns a remove callable.

        Exporters, the trace index, the tail sampler and profiled
        blocks consume spans this way; the flight recorders and
        telemetry buses of an ICE take theirs from :attr:`halves`. A
        sink that raises is skipped.
        """
        return self._sinks.add(sink)

    def _on_end(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
        if self._sinks.fns:
            self._sinks(span)
        self.halves.route(span.name, span)

    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- analysis -----------------------------------------------------------
    def summarize(self) -> dict[str, dict[str, float]]:
        """Per-span-name timing stats (the benchmarks print this)."""
        from repro.obs.exporters import summarize_spans

        return summarize_spans(self.finished_spans())

    def find(self, name_prefix: str) -> list[Span]:
        """Finished spans whose name starts with ``name_prefix``."""
        return [s for s in self.finished_spans() if s.name.startswith(name_prefix)]


# --------------------------------------------------------------------------
# Module-level context helpers (no tracer required at the call site)
# --------------------------------------------------------------------------
def current_span() -> Span | None:
    """The span currently installed in this context, if any."""
    return _CURRENT.get()


@contextlib.contextmanager
def use_span(span: Span | None) -> Iterator[Span | None]:
    """Install ``span`` as current without owning its lifetime.

    This is how worker threads (daemon connection handlers, workflow
    watchdogs) adopt a span started elsewhere; the span is *not* ended
    on exit.
    """
    if span is None:
        yield None
        return
    token = _CURRENT.set(span)
    try:
        yield span
    finally:
        _CURRENT.reset(token)


@contextlib.contextmanager
def child_span(name: str, **attributes: Any) -> Iterator[Span | None]:
    """Open a child of the *current* span using that span's own tracer.

    The ambient instrumentation primitive: deep layers (instrument
    drivers, the file share) call this without holding a tracer — when
    nothing upstream is tracing, it is a no-op costing one contextvar
    read.
    """
    parent = _CURRENT.get()
    if parent is None:
        yield None
        return
    span = parent.tracer.start_as_current_span(
        name, parent=parent, attributes=attributes or None
    )
    try:
        yield span
    except BaseException as exc:
        span.record_exception(exc)
        span.end(SpanStatus.ERROR)
        raise
    else:
        span.end()


def extract_context(carrier: Any) -> SpanContext | None:
    """Rebuild a :class:`SpanContext` from a wire carrier dict.

    Tolerant by design: anything malformed yields ``None`` (the request
    is served untraced) rather than an error — observability fields from
    unknown peers must never fail a call.
    """
    if not isinstance(carrier, dict):
        return None
    trace_id = carrier.get("trace_id")
    span_id = carrier.get("span_id")
    if (
        isinstance(trace_id, str)
        and isinstance(span_id, str)
        and trace_id
        and span_id
    ):
        return SpanContext(trace_id=trace_id, span_id=span_id)
    return None
