"""The flight recorder: a black box for cross-facility runs.

When a run at the ACL ends in a safe-state teardown, an abnormal-round
abort, a breaker trip, or a crashed fleet cell, the operator at the
other facility gets exactly one artifact to open: a correlated JSON
dump of what both ends of the ecosystem saw just before the event.

Each process keeps its own :class:`FlightRecorder` — a set of bounded
ring buffers holding recent finished spans (fed by its half of the
tracer, or by the tail sampler for kept traces only), recent
:class:`EventLog` entries (via subscription), and periodic metric
snapshots. Spans and entries are kept as the raw records and turned
into dicts when a snapshot is taken. ``dump()``
writes one file merging the local half with any remote halves pulled
over the control channel; spans from both sides share trace ids (the
``trace`` REQUEST field propagated them at call time), so the merged
document groups client and daemon spans under the same trace. The
daemon half is served by :class:`~repro.obs.scrape.ObservabilityServer`,
whose ``Recorder_Dump`` verb returns its snapshot for the client to merge.

Dump documents carry ``"schema": "repro-flightrec-1"``; the layout is
documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import threading
import uuid
from collections import deque
from pathlib import Path
from typing import Any, Callable

from repro.clock import Clock, WALL
from repro.logging_utils import Event
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span

#: Schema tag stamped into every dump document.
SCHEMA = "repro-flightrec-1"


class FlightRecorder:
    """Bounded ring buffers of recent telemetry, dumpable on demand.

    Args:
        service: which half this is (``"dgx-session"``, ``"acl-daemon"``);
            stamped into snapshots so merged dumps say who saw what.
        clock: time source for snapshot/dump stamps.
        max_spans / max_events / max_metric_snapshots: ring sizes. The
            recorder is a *recent-history* device, not an archive — old
            entries fall off silently.
    """

    def __init__(
        self,
        service: str,
        clock: Clock | None = None,
        max_spans: int = 2000,
        max_events: int = 2000,
        max_metric_snapshots: int = 64,
    ):
        self.service = service
        self.clock = clock or WALL
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._events: deque[Event] = deque(maxlen=max_events)
        self._metric_snapshots: deque[dict[str, Any]] = deque(
            maxlen=max_metric_snapshots
        )
        self._notes: deque[dict[str, Any]] = deque(maxlen=max_events)
        self._registry: MetricsRegistry | None = None
        self.last_dump: Path | None = None

    # -- capture ------------------------------------------------------------
    def record_span(self, span: Span) -> None:
        """Capture one finished span. A sink: the caller adds it to a
        span source (``tracer.add_sink``, a ``tracer.halves`` half, a
        :class:`~repro.obs.analysis.TraceSampler`) and keeps the remover."""
        with self._lock:
            self._spans.append(span)

    def record_event(self, event: Event) -> None:
        """Capture one event-log entry; the caller subscribes it with
        ``EventLog.subscribe`` and keeps the remover."""
        with self._lock:
            self._events.append(event)

    def observe_metrics(self, registry: MetricsRegistry) -> None:
        """Remember the registry so snapshots can read it."""
        self._registry = registry

    def snapshot_metrics(self) -> None:
        """Append one metric snapshot to the ring (call periodically or
        at interesting moments — round boundaries, before teardown)."""
        if self._registry is None:
            return
        try:
            summary = self._registry.summarize()
        except Exception:  # noqa: BLE001 - recording must never break runs
            return
        with self._lock:
            self._metric_snapshots.append(
                {"timestamp": self.clock.now(), "metrics": summary}
            )

    def note(self, message: str, **data: Any) -> None:
        """Annotate the recording (trigger context, operator remarks)."""
        with self._lock:
            self._notes.append(
                {"timestamp": self.clock.now(), "message": message, "data": data}
            )

    # -- export -------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """This half's recording as one JSON-safe dict.

        Takes a fresh metric snapshot first so the dump always carries
        the final readings.
        """
        self.snapshot_metrics()
        with self._lock:
            spans = list(self._spans)
            events = list(self._events)
            doc = {
                "schema": SCHEMA,
                "service": self.service,
                "captured_at": self.clock.now(),
                "spans": [],
                "events": [],
                "metric_snapshots": list(self._metric_snapshots),
                "notes": list(self._notes),
            }
        for span in spans:
            try:
                doc["spans"].append(span.to_dict())
            except Exception:  # noqa: BLE001 - a bad record never breaks a dump
                pass
        doc["events"] = [
            {
                "timestamp": event.timestamp,
                "source": event.source,
                "kind": event.kind,
                "message": event.message,
                "data": dict(event.data),
            }
            for event in events
        ]
        return doc

    def dump(
        self,
        directory: str | Path,
        trigger: str,
        remote_snapshots: "list[dict[str, Any]] | None" = None,
    ) -> Path:
        """Write the merged black box and return its path.

        Merges this half with any ``remote_snapshots`` (dicts returned by
        ``Recorder_Dump`` on the other side), via :func:`merge_snapshots`.
        Each call writes a distinct file
        (``flightrec-<trigger>-<nonce>.json``).
        """
        halves = [self.snapshot()]
        for remote in remote_snapshots or []:
            if isinstance(remote, dict):
                halves.append(remote)
        doc = merge_snapshots(halves, trigger=trigger)
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        safe_trigger = "".join(
            c if c.isalnum() or c in "-_" else "-" for c in trigger
        )
        path = directory / f"flightrec-{safe_trigger}-{uuid.uuid4().hex[:8]}.json"
        # dumps happen when things are already going wrong; write through
        # a fsync'd temp + rename so a crash mid-dump never leaves a
        # half-written black box masquerading as evidence
        from repro.durability.atomic import atomic_write_text

        atomic_write_text(
            path, json.dumps(doc, indent=2, default=str, sort_keys=False)
        )
        self.last_dump = path
        return path


def pull_remote_snapshots(client_fn: Callable[[], Any]) -> list[dict[str, Any]]:
    """The daemon half of the black box, via ``client_fn()``'s proxy to
    :class:`~repro.obs.scrape.ObservabilityServer`. Best-effort: a
    partitioned channel is often why a dump is happening, so any failure
    yields ``[]`` and the client half is still written.
    """
    try:
        with client_fn() as proxy:
            snapshot = proxy.Recorder_Dump()
    except Exception:  # noqa: BLE001 - the dump must survive a dead channel
        return []
    return [snapshot] if isinstance(snapshot, dict) else []


def merge_snapshots(
    snapshots: "list[dict[str, Any]]", trigger: str
) -> dict[str, Any]:
    """Correlate several recorder halves into one dump document.

    Spans keep their originating service, are pooled in start-time order,
    and are additionally grouped by ``trace_id`` under ``traces`` — the
    merged view an operator reads first: one workflow trace showing the
    client task span next to the daemon dispatch span it caused.
    """
    spans: list[dict[str, Any]] = []
    events: list[dict[str, Any]] = []
    notes: list[dict[str, Any]] = []
    halves: list[dict[str, Any]] = []
    for snap in snapshots:
        service = snap.get("service", "?")
        halves.append(
            {
                "service": service,
                "captured_at": snap.get("captured_at"),
                "span_count": len(snap.get("spans", [])),
                "event_count": len(snap.get("events", [])),
                "metric_snapshots": snap.get("metric_snapshots", []),
            }
        )
        for span in snap.get("spans", []):
            # the capturing half is authoritative: with one in-process
            # tracer serving both facilities, the span's own ``service``
            # attribute names the tracer, not the side that did the work
            spans.append({**span, "service": service})
        for event in snap.get("events", []):
            events.append({**event, "service": service})
        for note in snap.get("notes", []):
            notes.append({**note, "service": service})
    spans.sort(key=lambda s: s.get("start_time") or 0.0)
    events.sort(key=lambda e: e.get("timestamp") or 0.0)

    traces: dict[str, dict[str, Any]] = {}
    for span in spans:
        trace_id = span.get("trace_id") or "?"
        group = traces.setdefault(
            trace_id, {"services": [], "span_count": 0, "spans": []}
        )
        group["span_count"] += 1
        group["spans"].append(
            {
                "name": span.get("name"),
                "service": span.get("service"),
                "span_id": span.get("span_id"),
                "parent_id": span.get("parent_id"),
                "duration_s": span.get("duration_s"),
                "status": span.get("status"),
            }
        )
        service = span.get("service")
        if service not in group["services"]:
            group["services"].append(service)

    return {
        "schema": SCHEMA,
        "trigger": trigger,
        "halves": halves,
        "spans": spans,
        "events": events,
        "notes": notes,
        "traces": traces,
    }

