"""Health verdicts: turning raw telemetry into judgments.

The paper's operators cannot watch the cell — the ecosystem must notice
on its own when it is not fit to run. :class:`HealthEngine` evaluates
rolling-window rules over the session's
:class:`~repro.obs.metrics.MetricsRegistry` and renders one
``healthy`` / ``degraded`` / ``unhealthy`` verdict per subsystem, each
with human-readable reasons:

- **rpc** — control-channel error rate over the window and aggregate
  p95 call latency (interpolated from the histogram buckets);
- **resilience** — circuit-breaker open/half-open state and the retry
  volume in the window;
- **datachannel** — mount checksum-verify failures, watcher poll
  failures, and (via :meth:`HealthEngine.watch`) live watcher
  ``failure_streak`` readings;
- **workflow** — failed/skipped task outcomes;
- **fleet** — crashed fleet cells;
- **chaos** — injected faults (a reminder that observed trouble may be
  an experiment, not an outage).

Counters are *windowed*: a counter rule reads how much the counter grew
over the last ``window_s`` from the
:class:`~repro.obs.timeseries.TimeSeriesStore` rollups that hold the
registry's writes, so the engine keeps no history of its own. A window
starts no earlier than its store's attach: writes made before then are
never judged, and a run longer than ``window_s`` evaluated once is
judged on its last ``window_s``. Gauges are read live; histogram
quantiles are lifetime aggregates. The single-counter rules are the
rows of :data:`COUNTER_RULES`.

``session.health_engine.evaluate()`` is the one-call surface;
``require_healthy=True`` on workflows and campaigns turns the verdict
into a pre-flight gate (:class:`~repro.errors.HealthGateError` on
``unhealthy``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.clock import Clock, WALL
from repro.obs.metrics import MetricsRegistry, bucket_quantile
from repro.obs.timeseries import TimeSeriesStore

HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

_SEVERITY = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}

#: Subsystems every report covers, in display order, even when idle.
SUBSYSTEMS = (
    "rpc",
    "resilience",
    "datachannel",
    "workflow",
    "fleet",
    "chaos",
    "durability",
    "perf",
    "gateway",
    "slo",
)

#: A probe returns None (nothing to report) or a (status, reason) pair.
Probe = Callable[[], "tuple[str, str] | None"]

#: The single-counter rules, in merge order: ``(subsystem, counter,
#: label filter, details key, threshold, status, reason)``. Each row
#: reports the counter's windowed increase (summed over the label sets
#: the filter matches) under its details key, and merges ``status`` with
#: ``reason`` (formatted with the increase) once the increase reaches
#: ``threshold`` — a count, or the name of a :class:`HealthThresholds`
#: field. A row with no status is only reported.
COUNTER_RULES = (
    ("resilience", "resilience.retries_total", {}, "retries",
     "retries_degraded", DEGRADED, "{:.0f} call retries in window"),
    ("datachannel", "datachannel.verify_failures_total", {}, "verify_failures",
     1, UNHEALTHY, "{:.0f} checksum verify failure(s) on the mount"),
    ("datachannel", "datachannel.watcher.poll_failures_total", {}, "poll_failures",
     1, DEGRADED, "{:.0f} failed directory poll(s)"),
    ("workflow", "workflow.tasks_total", {"state": "failed"}, "failed_tasks",
     1, UNHEALTHY, "{:.0f} failed workflow task(s)"),
    ("workflow", "workflow.tasks_total", {"state": "skipped"}, "skipped_tasks",
     1, DEGRADED, "{:.0f} skipped workflow task(s)"),
    ("fleet", "fleet.cells_total", {"status": "error"}, "cells_errored",
     1, UNHEALTHY, "{:.0f} fleet cell(s) crashed"),
    ("chaos", "chaos.faults_total", {}, "faults_injected",
     1, DEGRADED, "{:.0f} chaos fault(s) injected in window"),
    # a fenced call is the lease stopping a split brain, but a sign the
    # operator should find and kill the zombie predecessor issuing it
    ("durability", "durability.lease_fenced_total", {}, "lease_fenced",
     1, DEGRADED, "{:.0f} stale-lease call(s) fenced in window"),
    ("durability", "durability.torn_tails_total", {}, "torn_tails",
     1, DEGRADED, "{:.0f} torn journal tail(s) detected (crash mid-append)"),
    ("durability", "recovery.daemon_restarts_total", {}, "daemon_restarts",
     1, DEGRADED, "{:.0f} daemon restart(s) in window (recovering)"),
    ("durability", "recovery.resumes_total", {}, "campaign_resumes",
     None, None, ""),
    ("gateway", "gateway.jobs_finished_total", {"status": "failed"}, "jobs_failed",
     1, DEGRADED, "{:.0f} gateway job(s) failed in window"),
    ("gateway", "gateway.rejects_total", {"reason": "auth"}, "auth_rejects",
     1, DEGRADED, "{:.0f} tenant auth rejection(s) in window"),
    # a skip is the scheduler working, but a window full of them means
    # capacity is down: the operator should know before the queue does
    ("gateway", "gateway.scheduler_skips_total", {}, "unhealthy_cell_skips",
     1, DEGRADED, "{:.0f} placement(s) skipped an unhealthy cell in window"),
)


@dataclass(frozen=True)
class HealthThresholds:
    """Rule thresholds; defaults sized for the simulated ICE.

    Attributes:
        rpc_min_calls: below this many windowed calls the error-rate
            rule abstains (two calls, one failed, is not a 50% outage).
        rpc_error_rate_degraded / rpc_error_rate_unhealthy: windowed
            client error-rate bounds.
        rpc_p95_degraded_s / rpc_p95_unhealthy_s: aggregate p95 call
            latency bounds. Generous by default: a clean run legitimately
            contains one multi-second acquisition wait among many
            sub-millisecond calls.
        retries_degraded: windowed resilience retries that flag the
            control channel as degraded (the calls succeeded — but only
            through the retry machinery).
        watcher_streak_degraded / watcher_streak_unhealthy: consecutive
            failing polls of a watched directory (see
            :meth:`HealthEngine.watch`).
        perf_ratio_degraded / perf_ratio_unhealthy: how far an
            operation's mean latency may grow past its recorded baseline
            before the ``perf`` subsystem flags it (see
            :meth:`HealthEngine.track_baseline`).
    """

    rpc_min_calls: int = 5
    rpc_error_rate_degraded: float = 0.05
    rpc_error_rate_unhealthy: float = 0.5
    rpc_p95_degraded_s: float = 10.0
    rpc_p95_unhealthy_s: float = 60.0
    retries_degraded: int = 3
    watcher_streak_degraded: int = 1
    watcher_streak_unhealthy: int = 5
    perf_ratio_degraded: float = 1.5
    perf_ratio_unhealthy: float = 3.0


def worst(*statuses: str) -> str:
    """The most severe of the given statuses (healthy when empty)."""
    return max(statuses, key=_SEVERITY.__getitem__, default=HEALTHY)


@dataclass
class SubsystemHealth:
    """One subsystem's verdict plus the evidence behind it."""

    subsystem: str
    status: str = HEALTHY
    reasons: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    def merge(self, status: str, reason: str = "") -> None:
        """Fold one rule's outcome in; reasons accumulate, status worsens."""
        if _SEVERITY[status] > _SEVERITY[self.status]:
            self.status = status
        if reason and status != HEALTHY:
            self.reasons.append(reason)

    def to_dict(self) -> dict[str, Any]:
        return {
            "subsystem": self.subsystem,
            "status": self.status,
            "reasons": list(self.reasons),
            "details": dict(self.details),
        }


@dataclass
class HealthReport:
    """The whole ecosystem's verdict at one evaluation instant."""

    status: str
    subsystems: dict[str, SubsystemHealth]
    window_s: float
    evaluated_at: float

    @property
    def healthy(self) -> bool:
        return self.status == HEALTHY

    @property
    def unhealthy(self) -> bool:
        return self.status == UNHEALTHY

    def reasons(self) -> list[str]:
        """Every non-healthy reason, prefixed by its subsystem."""
        out: list[str] = []
        for sub in self.subsystems.values():
            out.extend(f"{sub.subsystem}: {r}" for r in sub.reasons)
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "window_s": self.window_s,
            "evaluated_at": self.evaluated_at,
            "subsystems": {
                name: sub.to_dict() for name, sub in self.subsystems.items()
            },
        }

    def format_table(self) -> str:
        """Console verdict table (the ``repro health`` output)."""
        rows = [
            (name, sub.status, "; ".join(sub.reasons) or "-")
            for name, sub in self.subsystems.items()
        ]
        rows.append(("overall", self.status, "; ".join(self.reasons()) or "-"))
        name_w = max(len("subsystem"), max(len(r[0]) for r in rows))
        status_w = max(len("status"), max(len(r[1]) for r in rows))
        header = f"{'subsystem'.ljust(name_w)}  {'status'.ljust(status_w)}  reasons"
        lines = [header, "-" * len(header)]
        for name, status, reasons in rows:
            lines.append(f"{name.ljust(name_w)}  {status.ljust(status_w)}  {reasons}")
        return "\n".join(lines)


class HealthEngine:
    """Evaluates the health rules over a metrics registry.

    Args:
        metrics: the registry every layer reports into; the engine reads
            its gauges and histograms live.
        clock: time source of the report stamp and of the engine's own
            store (share the session's).
        window_s: rolling-window width for counter-rate rules.
        thresholds: rule bounds; defaults in :class:`HealthThresholds`.
        stores: the :class:`~repro.obs.timeseries.TimeSeriesStore`
            rollups the counter rules read. Between them they must take
            each write of ``metrics`` once: the session passes its own
            store and, in-process, the ICE's. None attaches one store of
            the engine's own to ``metrics`` (:meth:`close` detaches it);
            an empty sequence sees no counter growth at all.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        clock: Clock | None = None,
        window_s: float = 300.0,
        thresholds: HealthThresholds | None = None,
        bus: Any | None = None,
        stores: Sequence[TimeSeriesStore] | None = None,
    ):
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0, got {window_s}")
        self.metrics = metrics
        self.clock = clock or WALL
        self.window_s = window_s
        self.thresholds = thresholds or HealthThresholds()
        #: Optional :class:`~repro.obs.stream.TelemetryBus`; when set,
        #: every *change* of the overall status publishes a ``health``
        #: event, so the live feed shows the flip the moment it happens.
        self.bus = bus
        self._own_store: TimeSeriesStore | None = None
        if stores is None:
            self._own_store = TimeSeriesStore(clock=self.clock)
            self._own_store.attach(metrics)
            stores = (self._own_store,)
        self.stores = tuple(stores)
        self._lock = threading.Lock()
        self._probes: list[tuple[str, Probe]] = []
        self._last_status: str | None = None

    def close(self) -> None:
        """Detach the store the engine attached for itself, if any."""
        if self._own_store is not None:
            self._own_store.close()

    # -- live-object probes -------------------------------------------------
    def register_probe(self, subsystem: str, probe: Probe) -> None:
        """Attach a live check merged into ``subsystem``'s verdict.

        The probe returns None when it has nothing to report, or a
        ``(status, reason)`` pair. A raising probe is itself reported as
        degraded rather than crashing the evaluation.
        """
        with self._lock:
            self._probes.append((subsystem, probe))

    def watch(self, watcher: Any, subsystem: str = "datachannel") -> None:
        """Track a :class:`~repro.datachannel.watcher.MeasurementWatcher`.

        Its worst per-directory ``failure_streak`` feeds the subsystem
        verdict against the watcher-streak thresholds.
        """
        thresholds = self.thresholds

        def probe() -> tuple[str, str] | None:
            streak = int(getattr(watcher, "failure_streak", 0))
            if streak >= thresholds.watcher_streak_unhealthy:
                return UNHEALTHY, f"watcher failure streak at {streak}"
            if streak >= thresholds.watcher_streak_degraded:
                return DEGRADED, f"watcher failure streak at {streak}"
            return None

        self.register_probe(subsystem, probe)

    def track_baseline(
        self,
        store: Any,
        tracer: Any,
        subsystem: str = "perf",
    ) -> None:
        """Judge span timings against a recorded perf baseline.

        Registers a probe that summarizes ``tracer``'s finished spans,
        compares them with ``store``
        (:class:`~repro.obs.baseline.BaselineStore`), and merges the
        worst regression into the ``perf`` subsystem: ``degraded`` past
        ``perf_ratio_degraded`` x baseline, ``unhealthy`` past
        ``perf_ratio_unhealthy`` x. No baselines or no regressions means
        nothing to report.
        """
        thresholds = self.thresholds

        def probe() -> tuple[str, str] | None:
            if len(store) == 0:
                return None
            verdicts = store.compare(
                tracer.summarize(),
                ratio_degraded=thresholds.perf_ratio_degraded,
                ratio_unhealthy=thresholds.perf_ratio_unhealthy,
            )
            regressions = store.regressions(verdicts)
            if not regressions:
                return None
            name, verdict = regressions[0]
            status = (
                UNHEALTHY if verdict.get("severity") == "unhealthy" else DEGRADED
            )
            extra = len(regressions) - 1
            suffix = f" (+{extra} more)" if extra else ""
            return status, (
                f"{name} mean latency {verdict['ratio']:.1f}x its baseline "
                f"({verdict['current_mean_s']:.4f}s vs "
                f"{verdict['baseline_mean_s']:.4f}s){suffix}"
            )

        self.register_probe(subsystem, probe)

    # -- windows and quantiles --------------------------------------------
    def _increase(self, name: str, labels: dict[str, str] | None = None) -> float:
        """How much counter ``name`` grew over the window, summed over
        the label sets ``labels`` matches in every store."""
        total = 0.0
        for store in self.stores:
            total += store.window_stats(name, labels, window_s=self.window_s)["sum"]
        return total

    def _aggregate_quantile(self, name: str, q: float) -> float | None:
        """Quantile of a histogram merged across all its label sets."""
        metric = self.metrics.get(name)
        if metric is None or metric.kind != "histogram":
            return None
        combined: list[int] | None = None
        count = 0
        minimum = float("inf")
        maximum = float("-inf")
        for _labels, state in metric.series():
            if combined is None:
                combined = [0] * len(state.bucket_counts)
            for i, bucket_count in enumerate(state.bucket_counts):
                combined[i] += bucket_count
            count += state.count
            minimum = min(minimum, state.minimum)
            maximum = max(maximum, state.maximum)
        if combined is None or count == 0:
            return None
        return bucket_quantile(metric.buckets, combined, count, q, minimum, maximum)

    # -- evaluation ---------------------------------------------------------
    def evaluate(self) -> HealthReport:
        """Run every rule; returns the per-subsystem verdict report."""
        now = self.clock.now()
        with self._lock:
            probes = list(self._probes)

        subsystems = {name: SubsystemHealth(name) for name in SUBSYSTEMS}
        self._rule_rpc(subsystems["rpc"])
        self._rule_breakers(subsystems["resilience"])
        for subsystem, name, labels, key, threshold, status, reason in COUNTER_RULES:
            sub = subsystems[subsystem]
            increase = sub.details[key] = self._increase(name, labels)
            if status is None:
                continue
            if isinstance(threshold, str):
                threshold = getattr(self.thresholds, threshold)
            if increase >= threshold:
                sub.merge(status, reason.format(increase))

        for subsystem, probe in probes:
            target = subsystems.setdefault(subsystem, SubsystemHealth(subsystem))
            try:
                outcome = probe()
            except Exception as exc:  # noqa: BLE001 - probes must not crash health
                target.merge(DEGRADED, f"health probe raised: {exc}")
                continue
            if outcome is not None:
                target.merge(*outcome)

        overall = worst(*(sub.status for sub in subsystems.values()))
        report = HealthReport(
            status=overall,
            subsystems=subsystems,
            window_s=self.window_s,
            evaluated_at=now,
        )
        with self._lock:
            previous = self._last_status
            self._last_status = overall
        if self.bus is not None and overall != previous:
            try:
                self.bus.publish(
                    "health",
                    "health.status",
                    status=overall,
                    previous=previous,
                    reasons=report.reasons(),
                )
            except Exception:  # noqa: BLE001 - streaming must not break health
                pass
        return report

    # -- rules that are code ------------------------------------------------
    def _rule_rpc(self, sub: SubsystemHealth) -> None:
        t = self.thresholds
        calls = sub.details["calls"] = self._increase("rpc.client.calls_total")
        errors = sub.details["errors"] = self._increase(
            "rpc.client.calls_total", {"status": "error"}
        )
        if calls >= t.rpc_min_calls:
            rate = sub.details["error_rate"] = errors / calls
            reason = (
                f"client error rate {rate:.0%} "
                f"({errors:.0f}/{calls:.0f} calls in window)"
            )
            if rate >= t.rpc_error_rate_unhealthy:
                sub.merge(UNHEALTHY, reason)
            elif rate >= t.rpc_error_rate_degraded:
                sub.merge(DEGRADED, reason)
        p95 = self._aggregate_quantile("rpc.client.call_latency_s", 0.95)
        if p95 is not None:
            sub.details["p95_latency_s"] = p95
            if p95 >= t.rpc_p95_unhealthy_s:
                sub.merge(UNHEALTHY, f"p95 call latency {p95:.2f}s")
            elif p95 >= t.rpc_p95_degraded_s:
                sub.merge(DEGRADED, f"p95 call latency {p95:.2f}s")

    def _rule_breakers(self, sub: SubsystemHealth) -> None:
        gauge = self.metrics.get("resilience.breaker.state")
        if gauge is not None and gauge.kind == "gauge":
            for labels, state in gauge.series():
                breaker = labels.get("breaker", "?")
                value = state[0]
                if value == 1:
                    sub.merge(UNHEALTHY, f"breaker {breaker!r} open")
                elif value == 2:
                    sub.merge(DEGRADED, f"breaker {breaker!r} half-open (probing)")


def require_healthy(
    engine: HealthEngine | None, what: str = "run"
) -> HealthReport | None:
    """The pre-flight gate: raise when the ecosystem is unhealthy.

    Shared by ``Session.run_workflow``/``workflow`` and the campaign
    classes. No engine means no opinion (returns None rather than
    blocking a caller who never wired health up).

    Raises:
        HealthGateError: the report came back ``unhealthy``; the message
            carries every reason.
    """
    if engine is None:
        return None
    report = engine.evaluate()
    if report.unhealthy:
        from repro.errors import HealthGateError

        reasons = "; ".join(report.reasons()) or "no reasons recorded"
        raise HealthGateError(
            f"pre-flight health gate refused to start {what}: {reasons}"
        )
    return report
