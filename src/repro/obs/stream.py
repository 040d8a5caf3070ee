"""Live telemetry streaming: the real-time half of the observability stack.

Everything before this module was post-hoc — traces, metrics, health
reports and flight-recorder dumps are read *after* a run. The paper's
point (§1, §4.2 step 7) is remote experiment *steering*, which needs the
DGX operator to see what the ACL is doing while acquisition is still in
flight. The pieces:

- :class:`TelemetryBus` — a bounded, lock-safe pub/sub hub. Producers
  (tracer span-ends, :class:`~repro.obs.metrics.MetricsRegistry` writes,
  :class:`~repro.logging_utils.EventLog` entries, health status
  transitions) publish without ever blocking: each subscriber owns a
  drop-oldest ring, and overflow is counted in the
  ``obs.stream.dropped_total`` metric instead of applying backpressure.
  A span, a metric write or a log entry is kept as the raw record, with
  the sequence number and timestamp of its publish; its
  :class:`TelemetryEvent` is built when a reader asks for it.
- ``Telemetry_Poll`` — the control-channel face of the daemon-side
  bus, one verb of the daemon's ``ACL_Observability`` object
  (:class:`~repro.obs.scrape.ObservabilityServer`; the verb is spelled
  ``Telemetry_Poll`` because the RPC layer structurally refuses
  underscore-prefixed names, the same constraint that shaped
  ``Recorder_Dump``). Polling is cursor-based: the client sends the
  last sequence number it has seen and receives everything newer, plus
  a ``gap`` count when its cursor has fallen off the retention ring.
- :class:`SessionStream` — what ``session.stream()`` returns: tails the
  local (dgx-session) bus and polls the remote (acl-daemon) bus, then
  merges both halves into one time-ordered feed so a workflow-task span
  appears next to the daemon dispatch span it caused. Remote-poll
  failures and cursor gaps surface as synthetic ``stream.*`` events in
  the same feed — a partition degrades the stream, it never hangs it.

Wire documents carry ``"schema": "repro-stream-1"``; the cursor
protocol is documented in ``docs/PROTOCOLS.md`` §1.5.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.clock import Clock, WALL
from repro.logging_utils import Event
from repro.obs.metrics import LabelKey, MetricsRegistry, _Instrument
from repro.obs.primitives import CursorRing, Fanout
from repro.obs.trace import Span, current_span

#: Schema tag stamped into every Telemetry_Poll reply.
SCHEMA = "repro-stream-1"

#: Metric-name prefix the bus's own bookkeeping lives under. The
#: metrics listener skips these, otherwise a dropped-event increment
#: would publish a metric event that can drop and increment again.
OWN_METRIC_PREFIX = "obs.stream."

#: Event kinds a bus can carry.
KIND_SPAN = "span"
KIND_METRIC = "metric"
KIND_EVENT = "event"
KIND_HEALTH = "health"
KIND_STREAM = "stream"
KIND_SLO = "slo"


@dataclass(frozen=True)
class TelemetryEvent:
    """One item on the live feed.

    Attributes:
        seq: bus-assigned monotonic sequence number (1-based, per bus);
            the cursor currency of :meth:`TelemetryBus.read_since`.
        timestamp: clock reading at publish time.
        kind: one of ``span`` / ``metric`` / ``event`` / ``health`` /
            ``stream`` (the last for the stream's own meta-events).
        name: what happened — a span name, metric name, event kind,
            ``health.status``, ``stream.cursor_gap`` ...
        service: which bus half published it (``dgx-session`` /
            ``acl-daemon``).
        trace_id: correlating trace, when the producer had one.
        data: kind-specific payload (JSON-safe).
    """

    seq: int
    timestamp: float
    kind: str
    name: str
    service: str
    trace_id: str | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "timestamp": self.timestamp,
            "kind": self.kind,
            "name": self.name,
            "service": self.service,
            "trace_id": self.trace_id,
            "data": self.data,
        }

    @classmethod
    def from_wire(cls, raw: Any) -> "TelemetryEvent | None":
        """Tolerant decode: malformed items become None, never raise."""
        if not isinstance(raw, dict):
            return None
        try:
            data = raw.get("data")
            return cls(
                seq=int(raw["seq"]),
                timestamp=float(raw["timestamp"]),
                kind=str(raw["kind"]),
                name=str(raw["name"]),
                service=str(raw.get("service", "?")),
                trace_id=raw.get("trace_id") or None,
                data=dict(data) if isinstance(data, dict) else {},
            )
        except (KeyError, TypeError, ValueError):
            return None


class TelemetrySubscription:
    """One subscriber's drop-oldest ring on a :class:`TelemetryBus`.

    ``poll()`` drains whatever has arrived since the last poll without
    blocking; a slow poller loses the *oldest* unread events first and
    sees how many via :attr:`dropped`. ``close()`` detaches from the
    bus (idempotent; also the context-manager exit).
    """

    def __init__(self, bus: "TelemetryBus", capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self._bus = bus
        #: the bus's items, formatted by :meth:`poll`
        self._ring: deque[tuple] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._dropped = 0
        self._closed = False
        self._unsubscribe = bus._subscribers.add(self._offer)

    @property
    def dropped(self) -> int:
        """Events this subscriber lost to ring overflow so far."""
        with self._lock:
            return self._dropped

    @property
    def closed(self) -> bool:
        return self._closed

    def _offer(self, item: tuple) -> None:
        """Bus-side append; an evicted event is counted on the bus."""
        with self._lock:
            if self._closed:
                return
            evicting = len(self._ring) == self._ring.maxlen
            if evicting:
                self._dropped += 1
            self._ring.append(item)
        # outside the ring lock: the increment runs registry listeners,
        # and one of them may be this very bus
        counter = self._bus._dropped_counter
        if evicting and counter is not None:
            counter.inc(half=self._bus.service)

    def poll(self, max_events: int | None = None) -> list[TelemetryEvent]:
        """Drain up to ``max_events`` pending events (all, when None)."""
        out: list[tuple] = []
        with self._lock:
            while self._ring and (max_events is None or len(out) < max_events):
                out.append(self._ring.popleft())
        return [_event(item) for item in out]

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._ring.clear()
        self._unsubscribe()

    def __enter__(self) -> "TelemetrySubscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _event(item: tuple) -> TelemetryEvent:
    """Build the event of one bus item, a ``(build, seq, timestamp,
    trace_id, record)`` tuple."""
    build, seq, timestamp, trace_id, record = item
    return build(seq, timestamp, trace_id, record)


class TelemetryBus:
    """Bounded pub/sub hub for one half of the ecosystem.

    Args:
        service: which half this is (``"dgx-session"`` / ``"acl-daemon"``);
            stamped into every event.
        clock: time source for event stamps (share the session's).
        metrics: optional registry where the ``obs.stream.dropped_total``
            counter lives. This is the registry the bus *writes*; what it
            *publishes* is whatever its callers feed to
            :meth:`publish_span`, :meth:`publish_metric` and
            :meth:`publish_event`, each a callback they add to a source
            (``tracer.add_sink``, ``tracer.halves``, ``registry.halves``,
            ``EventLog.subscribe``) and remove with the remover it returns.
        history: size of the global retention ring served to remote
            cursor polls (:meth:`read_since`). Local subscribers have
            their own rings and are unaffected.

    Publishing never blocks and never raises: slow consumers lose old
    events (counted), not the producer's time. A lock is held only for
    the ring appends themselves.
    """

    def __init__(
        self,
        service: str,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        history: int = 1024,
    ):
        if history <= 0:
            raise ValueError(f"history must be > 0, got {history}")
        self.service = service
        self.clock = clock or WALL
        self.metrics = metrics
        self._lock = threading.Lock()
        self._history: CursorRing[tuple] = CursorRing(history)
        self._subscribers = Fanout()
        self._dropped_counter = (
            metrics.counter(
                "obs.stream.dropped_total",
                "telemetry events lost to ring overflow",
            )
            if metrics is not None
            else None
        )

    # -- publishing ---------------------------------------------------------
    def publish(
        self,
        kind: str,
        name: str,
        trace_id: str | None = None,
        timestamp: float | None = None,
        **data: Any,
    ) -> TelemetryEvent:
        """Put one event on the bus; returns it (mostly for tests)."""

        def build(seq: int, stamp: float, trace: "str | None", _: Any) -> TelemetryEvent:
            return TelemetryEvent(seq, stamp, kind, name, self.service, trace, data)

        return _event(self._publish_raw(build, None, trace_id, timestamp))

    def _publish_raw(
        self,
        build: Callable[[int, float, "str | None", Any], TelemetryEvent],
        record: Any,
        trace_id: str | None,
        timestamp: float | None = None,
    ) -> tuple:
        """Put one raw record on the bus; ``build`` makes its event when
        a reader asks. Seq and timestamp are assigned now."""
        with self._lock:
            ring = self._history
            item = (
                build,
                ring.seq + 1,
                self.clock.now() if timestamp is None else timestamp,
                trace_id,
                record,
            )
            ring.add(item)
        if self._subscribers.fns:
            self._subscribers(item)
        return item

    def publish_span(self, span: Span) -> None:
        """Publish one finished span as a ``span`` event."""
        self._publish_raw(self._span_event, span, span.trace_id)

    def _span_event(
        self, seq: int, timestamp: float, trace_id: "str | None", span: Span
    ) -> TelemetryEvent:
        return TelemetryEvent(
            seq,
            timestamp,
            KIND_SPAN,
            span.name,
            self.service,
            trace_id,
            {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "duration_s": span.duration_s,
                "status": span.status,
                "attributes": dict(span.attributes),
            },
        )

    def publish_metric(
        self,
        metric: _Instrument,
        key: LabelKey,
        labels: dict[str, Any],
        value: float,
    ) -> None:
        """Publish one metric write as a ``metric`` event (the
        :attr:`MetricsRegistry.halves` consumer signature).

        The bus's own ``obs.stream.*`` counter is skipped — it may be
        incremented *by* a publish, and streaming it back would recurse.
        """
        name = metric.name
        if name.startswith(OWN_METRIC_PREFIX):
            return
        span = current_span()
        self._publish_raw(
            self._metric_event,
            (name, metric.kind, labels, value),
            span.trace_id if span is not None else None,
        )

    def _metric_event(
        self, seq: int, timestamp: float, trace_id: "str | None", record: tuple
    ) -> TelemetryEvent:
        name, kind, labels, value = record
        return TelemetryEvent(
            seq,
            timestamp,
            KIND_METRIC,
            name,
            self.service,
            trace_id,
            {
                "metric_kind": kind,
                "labels": {k: str(v) for k, v in labels.items()},
                "value": value,
            },
        )

    def publish_event(self, event: Event) -> None:
        """Publish one :class:`Event` as an ``event`` event, stamped with
        its own timestamp. Runs in the emitting thread, so the current
        span (if any) supplies the trace id."""
        span = current_span()
        self._publish_raw(
            self._log_event,
            event,
            span.trace_id if span is not None else None,
            event.timestamp,
        )

    def _log_event(
        self, seq: int, timestamp: float, trace_id: "str | None", event: Event
    ) -> TelemetryEvent:
        return TelemetryEvent(
            seq,
            timestamp,
            KIND_EVENT,
            f"{event.source}:{event.kind}",
            self.service,
            trace_id,
            {
                "source": event.source,
                "event_kind": event.kind,
                "message": event.message,
                "data": dict(event.data),
            },
        )

    # -- subscribing --------------------------------------------------------
    def subscribe(self, capacity: int = 256) -> TelemetrySubscription:
        """A new drop-oldest ring fed by every subsequent publish."""
        return TelemetrySubscription(self, capacity)

    def read_since(
        self, cursor: int = 0, max_events: int = 256
    ) -> tuple[list[TelemetryEvent], int, int]:
        """Cursor read over the retention ring (the polling protocol):
        :meth:`~repro.obs.primitives.CursorRing.read`, which returns
        ``(events, next_cursor, gap)``; ``cursor`` is the highest
        sequence number the caller has already seen (0 on the first poll).
        """
        with self._lock:
            items, next_cursor, gap = self._history.read(cursor, max_events)
        return [_event(item) for item in items], next_cursor, gap

    @property
    def latest_seq(self) -> int:
        with self._lock:
            return self._history.seq


class SessionStream:
    """The merged live feed behind ``session.stream()``.

    Tails the local bus through a private subscription and the remote
    bus through ``Telemetry_Poll``, merging each :meth:`drain` batch
    into one time-ordered list. Pull-based by design — no background
    thread; the caller's drain cadence is the refresh rate.

    Failure semantics (the steering loop must outlive the stream):

    - a remote poll that raises is swallowed and surfaced as a synthetic
      ``stream.remote_poll_failed`` event in the same feed;
    - a remote cursor gap (the daemon ring outran our polling, e.g.
      across a partition) becomes a ``stream.cursor_gap`` event carrying
      the missed count, and bumps ``obs.stream.dropped_total`` with
      ``half=remote``.

    Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        bus: TelemetryBus,
        remote_client_fn: "Callable[[], Any] | None" = None,
        capacity: int = 1024,
        max_remote_events: int = 256,
    ):
        self._bus = bus
        self._subscription = bus.subscribe(capacity=capacity)
        self._remote_client_fn = remote_client_fn
        self._remote_client: Any | None = None
        self._remote_broken = False
        self._remote_cursor = 0
        self._max_remote_events = max_remote_events
        self.remote_gap_total = 0
        self.remote_poll_failures = 0

    @property
    def dropped(self) -> int:
        """Local events lost to this stream's own ring overflow."""
        return self._subscription.dropped

    def _poll_remote(self) -> list[TelemetryEvent]:
        if self._remote_client_fn is None or self._remote_broken:
            return []
        try:
            if self._remote_client is None:
                self._remote_client = self._remote_client_fn()
            reply = self._remote_client.Telemetry_Poll(
                cursor=self._remote_cursor,
                max_events=self._max_remote_events,
            )
        except Exception as exc:  # noqa: BLE001 - stream degrades, never hangs
            self.remote_poll_failures += 1
            # drop the proxy so the next drain reconnects from scratch;
            # the synthetic event reaches the caller through the local
            # subscription this very drain is about to poll
            self._close_remote()
            self._bus.publish(
                KIND_STREAM,
                "stream.remote_poll_failed",
                error_type=type(exc).__name__,
                message=str(exc),
                failures=self.remote_poll_failures,
            )
            return []
        if not isinstance(reply, dict):
            return []
        gap = int(reply.get("gap") or 0)
        if gap > 0:
            self.remote_gap_total += gap
            if self._bus.metrics is not None:
                self._bus.metrics.counter("obs.stream.dropped_total").inc(
                    gap, half="remote"
                )
            self._bus.publish(
                KIND_STREAM,
                "stream.cursor_gap",
                missed=gap,
                service=str(reply.get("service", "?")),
            )
        self._remote_cursor = int(reply.get("cursor") or self._remote_cursor)
        out: list[TelemetryEvent] = []
        for raw in reply.get("events", []):
            event = TelemetryEvent.from_wire(raw)
            if event is not None:
                out.append(event)
        return out

    def drain(self, max_events: int | None = None) -> list[TelemetryEvent]:
        """Everything new on both halves, merged in time order.

        The remote poll runs first so the synthetic ``stream.*`` events
        it publishes land in the local subscription polled right after.
        """
        remote = self._poll_remote()
        local = self._subscription.poll(max_events=max_events)
        merged = local + remote
        merged.sort(key=lambda e: (e.timestamp, e.service, e.seq))
        return merged

    def close(self) -> None:
        self._subscription.close()
        self._close_remote()

    def _close_remote(self) -> None:
        client = self._remote_client
        self._remote_client = None
        if client is not None:
            try:
                client.close()
            except Exception:  # noqa: BLE001
                pass

    def __enter__(self) -> "SessionStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
