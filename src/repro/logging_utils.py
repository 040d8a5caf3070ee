"""Structured event logging shared by instruments, RPC and workflows.

The paper's figures (5b, 6b) are essentially *event transcripts*: the
single-board computer echoing ``SYRINGEPUMP_RATE(1,5.000000) OK``, the Pyro
server logging each lifecycle step. :class:`EventLog` is the in-memory
equivalent: components append :class:`Event` records, tests assert on them,
and the figure benchmarks print them verbatim.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Events an :class:`EventLog` keeps, newest last; older ones fall off
#: (subscribers saw them). The order of the tracer's ``max_spans``: a
#: long-lived ICE log gains 1-4 events per control call.
MAX_EVENTS = 20000

_current_span_fn: Callable[[], Any] | None = None


def _current_span():
    # late import: logging_utils is imported by nearly everything, and a
    # module-level import of repro.obs here would be the one place a
    # cycle could form as obs grows
    global _current_span_fn
    if _current_span_fn is None:
        from repro.obs.trace import current_span

        _current_span_fn = current_span
    return _current_span_fn()


@dataclass(frozen=True)
class Event:
    """One timestamped occurrence inside a component.

    Attributes:
        timestamp: seconds (wall or virtual, whatever the component uses).
        source: component identifier, e.g. ``"jkem.sbc"`` or ``"sp200.ch1"``.
        kind: short machine-readable category, e.g. ``"command"``.
        message: human-readable line, e.g. ``"SYRINGEPUMP_RATE(1,5.0) OK"``.
        data: structured payload for programmatic assertions.
    """

    timestamp: float
    source: str
    kind: str
    message: str
    data: dict[str, Any] = field(default_factory=dict)

    def format_line(self) -> str:
        """Render like a device console line."""
        return f"[{self.timestamp:10.4f}] {self.source:<18} {self.kind:<10} {self.message}"


class EventLog:
    """Thread-safe store of the newest :data:`MAX_EVENTS` events with
    subscription support."""

    def __init__(self, clock_fn: Callable[[], float] | None = None):
        self._events: deque[Event] = deque(maxlen=MAX_EVENTS)
        self._lock = threading.Lock()
        # copy-on-write: emit iterates the tuple it read, without a lock
        self._subscribers: tuple[Callable[[Event], None], ...] = ()
        self._clock_fn = clock_fn or time.monotonic

    def emit(
        self,
        source: str,
        kind: str,
        message: str,
        **data: Any,
    ) -> Event:
        """Record an event and fan it out to subscribers.

        When the emitting code runs inside an active trace span (see
        :mod:`repro.obs.trace`), the event is also attached to that span,
        so existing transcripts gain trace context with no caller change.
        """
        event = Event(
            timestamp=self._clock_fn(),
            source=source,
            kind=kind,
            message=message,
            data=data,
        )
        with self._lock:
            self._events.append(event)
        for callback in self._subscribers:
            callback(event)
        span = _current_span()
        if span is not None:
            span.add_event(f"{source}:{kind}", message=message)
        return event

    def subscribe(self, callback: Callable[[Event], None]) -> Callable[[], None]:
        """Register a listener; returns an unsubscribe function."""
        with self._lock:
            self._subscribers += (callback,)

        def unsubscribe() -> None:
            with self._lock:
                subscribers = list(self._subscribers)
                if callback in subscribers:
                    subscribers.remove(callback)
                    self._subscribers = tuple(subscribers)

        return unsubscribe

    def events(
        self,
        source: str | None = None,
        kind: str | None = None,
    ) -> list[Event]:
        """Snapshot of events, optionally filtered."""
        with self._lock:
            snapshot = list(self._events)
        if source is not None:
            snapshot = [e for e in snapshot if e.source == source]
        if kind is not None:
            snapshot = [e for e in snapshot if e.kind == kind]
        return snapshot

    def messages(self, source: str | None = None, kind: str | None = None) -> list[str]:
        """Just the message strings, for transcript-style assertions."""
        return [e.message for e in self.events(source=source, kind=kind)]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __bool__(self) -> bool:
        # an empty log must still be truthy: ``log or EventLog()`` would
        # otherwise silently replace a shared log with a private one
        return True

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events())

    def format_transcript(self) -> str:
        """Render the whole log as a console transcript."""
        return "\n".join(e.format_line() for e in self.events())
