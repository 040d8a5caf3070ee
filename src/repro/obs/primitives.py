"""The building blocks the observability planes share.

:class:`Fanout` calls a list of callbacks (span sinks, kept-trace sinks,
metric update listeners, bus subscribers); :class:`Halves` routes each
finished span or metric write to the consumers of the one ICE half it
belongs to; :class:`CursorRing` serves the one cursor poll behind
``Telemetry_Poll``, ``Job_Poll`` and ``Obs_Scrape``
(``docs/PROTOCOLS.md`` §1.5).
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import islice
from typing import Any, Callable, Generic, TypeVar

T = TypeVar("T")


class Fanout:
    """Callbacks called in the order added; :meth:`add` returns a remove
    callable. Calls iterate an immutable tuple, so they take no lock and
    a callback may add or remove callbacks while it runs. A callback that
    raises is skipped: observability never breaks what it observes.
    """

    __slots__ = ("fns", "_lock")

    def __init__(self) -> None:
        self.fns: tuple[Callable[..., Any], ...] = ()
        self._lock = threading.Lock()

    def add(self, fn: Callable[..., Any]) -> Callable[[], None]:
        with self._lock:
            self.fns += (fn,)

        def remove() -> None:
            with self._lock:
                fns = list(self.fns)
                if fn in fns:
                    fns.remove(fn)
                    self.fns = tuple(fns)

        return remove

    def __call__(self, *args: Any) -> None:
        for fn in self.fns:
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 - observers never break runs
                pass


class Halves:
    """The one routing step behind a tracer's or registry's own
    consumers: each record goes to the ``acl`` (daemon-half) consumers
    when ``daemon_side(name)`` holds, else to the ``dgx`` (session-half)
    ones. One in-process tracer and registry serve both facilities, so
    the half is decided once per record, not once per consumer, and not
    at all while neither half has a consumer.
    """

    __slots__ = ("daemon_side", "dgx", "acl")

    def __init__(self, daemon_side: Callable[[str], bool]) -> None:
        self.daemon_side = daemon_side
        self.dgx = Fanout()
        self.acl = Fanout()

    def route(self, name: str, *record: Any) -> None:
        if not (self.dgx.fns or self.acl.fns):
            return
        for fn in (self.acl if self.daemon_side(name) else self.dgx).fns:
            try:
                fn(*record)
            except Exception:  # noqa: BLE001 - observers never break runs
                pass


class CursorRing(Generic[T]):
    """Items numbered 1, 2, ... as appended, the oldest evicted beyond
    ``capacity``. Takes no lock: each owner calls it under its own."""

    __slots__ = ("_items", "seq")

    def __init__(self, capacity: int):
        self._items: deque[T] = deque(maxlen=capacity)
        self.seq = 0  # number of the newest item

    def append(self, make: Callable[[int], T]) -> T:
        """Keep ``make(seq)``, built with the next number; returns it."""
        item = make(self.seq + 1)
        self.add(item)
        return item

    def add(self, item: T) -> None:
        """Keep ``item`` as number :attr:`seq` + 1 (read it first to
        build an item that carries its own number)."""
        self.seq += 1
        self._items.append(item)

    def read(
        self, cursor: int, limit: int, keep: Callable[[T], bool] | None = None
    ) -> tuple[list[T], int, int]:
        """Up to ``limit`` items numbered above ``cursor``, oldest first.

        Returns ``(items, next_cursor, gap)``: the cursor to send next
        time, and how many items fell off the ring between ``cursor``
        and the oldest one held. Items ``keep`` rejects are left out but
        still advance the cursor, so a filtered reader never rescans them.
        """
        if limit <= 0:
            return [], cursor, 0
        if not self._items:
            return [], max(cursor, self.seq), 0
        oldest = self.seq - len(self._items) + 1
        skip = max(0, cursor - oldest + 1)
        items: list[T] = []
        next_cursor = cursor
        for seq, item in enumerate(islice(self._items, skip, None), oldest + skip):
            next_cursor = seq
            if keep is None or keep(item):
                items.append(item)
                if len(items) >= limit:
                    break
        return items, next_cursor, max(0, oldest - cursor - 1)
