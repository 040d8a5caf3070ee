"""Span exporters and trace analysis.

One sink — a JSONL file (one span per line, the CI artifact format) —
plus the pure functions that read traces back and summarize them for
the benchmarks.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, IO, Iterable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Span


class JsonlSpanExporter:
    """Append each finished span as one JSON line.

    Pass an instance as ``Tracer(exporter=...)``; the file is opened
    lazily and flushed per span so a crashed run still leaves a usable
    trace. Thread-safe: spans finish on daemon connection threads,
    pipelined-reader threads and the caller's thread concurrently, so
    serialization *and* the write run under one lock — two JSONL lines
    can never interleave. Use as a context manager or call
    :meth:`close` (which flushes; a span exported after close reopens
    the file rather than being lost).

    With ``max_bytes`` set, the file rotates once a completed write
    crosses the cap: the current file is flushed, closed and renamed to
    ``<path>.1`` (existing rollovers shift to ``.2`` … ``.max_files``,
    the oldest is deleted) and a fresh file takes its place. Rotation
    happens on line boundaries only — no span is ever split across
    files — so a long-running gateway campaign keeps a bounded trace
    footprint of ``max_bytes * (max_files + 1)`` at the cost of losing
    only the oldest spans.
    """

    def __init__(
        self,
        path: str | Path,
        max_bytes: int | None = None,
        max_files: int = 5,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        if max_files < 1:
            raise ValueError("max_files must be at least 1")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self._lock = threading.Lock()
        self._fh: IO[str] | None = None

    def __call__(self, span: "Span") -> None:
        # serialize inside the lock too: to_dict() reads mutable span
        # state, and interleaved write() calls from two threads would
        # corrupt the line-oriented format
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(json.dumps(span.to_dict(), default=str) + "\n")
            self._fh.flush()
            if self.max_bytes is not None and self._fh.tell() >= self.max_bytes:
                self._rotate_locked()

    def _rotate_locked(self) -> None:
        """Roll the numbered files; caller holds the lock.

        The live handle is flushed and closed *before* any rename so the
        rolled file is always complete on disk (the flush-on-rotate
        guarantee); the next span lazily opens a fresh file.
        """
        assert self._fh is not None
        try:
            self._fh.flush()
        finally:
            self._fh.close()
            self._fh = None
        oldest = self.path.with_name(f"{self.path.name}.{self.max_files}")
        if oldest.exists():
            oldest.unlink()
        for i in range(self.max_files - 1, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{i}")
            if src.exists():
                src.rename(self.path.with_name(f"{self.path.name}.{i + 1}"))
        if self.path.exists():
            self.path.rename(self.path.with_name(f"{self.path.name}.1"))

    def rollover_paths(self) -> list[Path]:
        """Existing rotated files, newest first (``.1`` before ``.2``)."""
        paths = []
        for i in range(1, self.max_files + 1):
            candidate = self.path.with_name(f"{self.path.name}.{i}")
            if candidate.exists():
                paths.append(candidate)
        return paths

    def close(self) -> None:
        """Flush and close; idempotent, and late spans reopen the file."""
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.flush()
                finally:
                    self._fh.close()
                    self._fh = None

    def __enter__(self) -> "JsonlSpanExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_jsonl_spans(path: str | Path) -> list[dict[str, Any]]:
    """Load a JSONL trace file back into span dicts (skips blank lines)."""
    spans: list[dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def _as_dicts(spans: Iterable[Any]) -> list[dict[str, Any]]:
    return [s if isinstance(s, dict) else s.to_dict() for s in spans]


def _durations_p95(durations: list[float]) -> float:
    """p95 of a duration list via the shared bucket interpolation."""
    from repro.obs.metrics import LATENCY_BUCKETS_S, bucket_quantile

    counts = [0] * (len(LATENCY_BUCKETS_S) + 1)
    for value in durations:
        idx = len(LATENCY_BUCKETS_S)
        for i, bound in enumerate(LATENCY_BUCKETS_S):
            if value <= bound:
                idx = i
                break
        counts[idx] += 1
    estimate = bucket_quantile(
        LATENCY_BUCKETS_S,
        counts,
        len(durations),
        0.95,
        min(durations),
        max(durations),
    )
    return estimate if estimate is not None else 0.0


def summarize_spans(spans: Iterable[Any]) -> dict[str, dict[str, float]]:
    """Per-name stats over spans (live :class:`Span` objects or dicts).

    Returns ``{name: {count, errors, total_s, mean_s, min_s, max_s,
    p95_s}}`` — the structure the overhead benchmark prints and asserts
    on. Timing stats come from the spans that actually carry a
    ``duration_s``; a group whose spans all lack one (e.g. spans read
    back from a foreign trace file) reports zeros — never ``inf``.
    """
    stats: dict[str, dict[str, float]] = {}
    timed: dict[str, list[float]] = {}
    for span in _as_dicts(spans):
        name = span["name"]
        entry = stats.setdefault(
            name,
            {
                "count": 0,
                "errors": 0,
                "total_s": 0.0,
                "mean_s": 0.0,
                "min_s": 0.0,
                "max_s": 0.0,
                "p95_s": 0.0,
            },
        )
        entry["count"] += 1
        if span.get("status") == "ERROR":
            entry["errors"] += 1
        duration = span.get("duration_s")
        if duration is not None:
            timed.setdefault(name, []).append(float(duration))
    for name, entry in stats.items():
        durations = timed.get(name)
        if not durations:
            continue
        entry["total_s"] = sum(durations)
        entry["mean_s"] = entry["total_s"] / len(durations)
        entry["min_s"] = min(durations)
        entry["max_s"] = max(durations)
        entry["p95_s"] = _durations_p95(durations)
    return stats


def trace_tree(spans: Iterable[Any], trace_id: str | None = None) -> str:
    """Indented parent→child rendering of one trace (docs/debugging).

    Spans whose parent id is absent from the input — the normal case
    for partial or streamed captures, where the parent is still open or
    fell off a ring buffer — are rendered as synthetic roots marked
    ``…`` rather than silently merged with the true roots.
    """
    span_dicts = _as_dicts(spans)
    if trace_id is not None:
        span_dicts = [s for s in span_dicts if s["trace_id"] == trace_id]
    by_parent: dict[str | None, list[dict[str, Any]]] = {}
    ids = {s["span_id"] for s in span_dicts}
    orphans: set[str] = set()
    for s in span_dicts:
        parent = s.get("parent_id")
        if parent is not None and parent not in ids:
            orphans.add(s["span_id"])
            parent = None
        by_parent.setdefault(parent, []).append(s)
    for children in by_parent.values():
        children.sort(key=lambda s: s.get("start_time") or 0.0)
    lines: list[str] = []

    def render(parent_key: str | None, depth: int) -> None:
        for s in by_parent.get(parent_key, []):
            marker = "… " if s["span_id"] in orphans else ""
            lines.append(
                f"{'  ' * depth}{marker}{s['name']} "
                f"[{(s.get('duration_s') or 0.0) * 1000:.3f} ms, {s.get('status')}]"
            )
            render(s["span_id"], depth + 1)

    render(None, 0)
    return "\n".join(lines) if lines else "(no spans)"
