"""Run profiles: which operation owned the clock?

:func:`profiled` collects the spans a block finishes and
:func:`profile_spans` builds their self-time profile, the
``repro-profile-1`` document that ``profile=True`` and
``BENCH_profile.json`` carry. ``docs/OBSERVABILITY.md`` states the rule.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable

from repro.obs.trace import Span, SpanStatus, Tracer

#: Schema tag stamped into every profile document.
SCHEMA = "repro-profile-1"

_UNSTAMPED = (None, 0.0)


class profiled:
    """Context manager collecting the spans ``tracer`` finishes inside it.

    While any block is open, the spans the tracer starts stamp their
    thread and thread CPU time; blocks nest. :meth:`profile` builds the
    document of ``spans``, during or after the block.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.spans: list[Span] = []

    def __enter__(self) -> "profiled":
        self.started_at = self.tracer.clock.now()
        self._remove_sink = self.tracer.add_sink(self.spans.append)
        with self.tracer._lock:
            self.tracer._profiling += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self.tracer._lock:
            self.tracer._profiling -= 1
        self._remove_sink()

    def profile(self) -> dict[str, Any]:
        return profile_spans(self.spans, self.started_at, self.tracer.clock.now())


def _self_time(span: Span, children: list[Span]) -> tuple[float, int]:
    """``span``'s duration less the union of ``children``, and the number
    of gaps they leave in it (a leaf has one)."""
    covered, gaps, reach = 0.0, 1, float("-inf")
    for lo, hi in sorted(
        (max(c.start_time, span.start_time), min(c.end_time, span.end_time))
        for c in children
    ):
        if hi < lo:  # entirely outside the span
            continue
        if lo >= reach:  # clear of the children before it: one more gap
            gaps += 1
        covered += max(0.0, hi - max(lo, reach))
        reach = max(reach, hi)
    return max(0.0, span.duration_s - covered), gaps


def profile_spans(
    spans: Iterable[Span], started_at: float, captured_at: float
) -> dict[str, Any]:
    """The ``repro-profile-1`` document for a list of finished spans:
    each span's wall and CPU time less that of its children started on
    the same thread (their union, for wall time; spans started outside a
    block count as one thread), and the gaps those children leave as
    ``samples``."""
    spans = [span for span in spans if span.end_time is not None]
    by_id = {span.span_id: span for span in spans}
    local: dict[str, list[Span]] = {}
    for span in spans:
        parent = by_id.get(span.parent_id)
        thread = (span._thread_cpu or _UNSTAMPED)[0]
        if parent is not None and (parent._thread_cpu or _UNSTAMPED)[0] == thread:
            local.setdefault(parent.span_id, []).append(span)

    def path_of(span: Span) -> tuple[str, ...]:
        parent = by_id.get(span.parent_id)
        return (path_of(parent) if parent is not None else ()) + (span.name,)

    operations: dict[str, Counter] = {}
    by_path: dict[tuple[str, ...], Counter] = {}
    for span in spans:
        children = local.get(span.span_id, [])
        self_s, gaps = _self_time(span, children)
        cpu_s = max(
            0.0,
            (span._thread_cpu or _UNSTAMPED)[1]
            - sum((child._thread_cpu or _UNSTAMPED)[1] for child in children),
        )
        operations.setdefault(span.name, Counter()).update(
            count=1,
            errors=int(span.status == SpanStatus.ERROR),
            self_s=self_s,
            cpu_self_s=cpu_s,
            total_s=span.duration_s,
            samples=gaps,
        )
        by_path.setdefault(path_of(span), Counter()).update(
            self_s=self_s, cpu_self_s=cpu_s, samples=gaps
        )

    below: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for path in by_path:
        below.setdefault(path[:-1], []).append(path)

    def tree(path: tuple[str, ...], node: dict[str, Any]) -> dict[str, Any]:
        nested = [tree(child, by_path[child]) for child in below.get(path, ())]
        nested.sort(key=lambda n: -n["self_s"])
        return {"name": path[-1] if path else "<root>", **node, "children": nested}

    hottest = sorted(by_path.items(), key=lambda item: -item[1]["self_s"])[:10]
    return {
        "schema": SCHEMA,
        "captured_at": captured_at,
        "wall_s": max(0.0, captured_at - started_at),
        "samples_total": sum(node["samples"] for node in by_path.values()),
        "operations": {name: dict(stats) for name, stats in operations.items()},
        "hot_paths": [{"path": list(path), **node} for path, node in hottest],
        "tree": tree((), {"self_s": 0.0, "cpu_self_s": 0.0, "samples": 0}),
    }
