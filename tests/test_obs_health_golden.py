"""Golden health verdicts: the exact status, reasons and details per rule.

Each case drives one rule of :class:`HealthEngine` on a fresh registry
and compares the whole subsystem entry of one report — status, every
reason string and every ``details`` value — with the verdict the engine
gave when the counter rules were written one method per rule. The
single-counter rules are one row each; the rpc error-rate, rpc p95 and
breaker-gauge rules have their own cases.
"""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.obs import MetricsRegistry
from repro.obs.health import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    HealthEngine,
    HealthThresholds,
)

_DATACHANNEL = {"verify_failures": 0.0, "poll_failures": 0.0}
_WORKFLOW = {"failed_tasks": 0.0, "skipped_tasks": 0.0}
_DURABILITY = {
    "lease_fenced": 0.0,
    "torn_tails": 0.0,
    "daemon_restarts": 0.0,
    "campaign_resumes": 0.0,
}
_GATEWAY = {"jobs_failed": 0.0, "auth_rejects": 0.0, "unhealthy_cell_skips": 0.0}

#: (counter, matching labels, non-matching labels or None, subsystem,
#: status, reasons, details) — each counter is incremented twice on the
#: matching labels (three times for retries, its threshold) and three
#: times on the non-matching ones, which no rule may count.
COUNTER_CASES = [
    (
        "resilience.retries_total",
        {"method": "Status_JKem", "error_type": "ConnectionError"},
        None,
        "resilience",
        DEGRADED,
        ["3 call retries in window"],
        {"retries": 3.0},
    ),
    (
        "datachannel.verify_failures_total",
        {"path": "run.mpt"},
        None,
        "datachannel",
        UNHEALTHY,
        ["2 checksum verify failure(s) on the mount"],
        {**_DATACHANNEL, "verify_failures": 2.0},
    ),
    (
        "datachannel.watcher.poll_failures_total",
        {"directory": "/"},
        None,
        "datachannel",
        DEGRADED,
        ["2 failed directory poll(s)"],
        {**_DATACHANNEL, "poll_failures": 2.0},
    ),
    (
        "workflow.tasks_total",
        {"workflow": "cv", "task": "C_fill_cell", "state": "failed"},
        {"workflow": "cv", "task": "C_fill_cell", "state": "succeeded"},
        "workflow",
        UNHEALTHY,
        ["2 failed workflow task(s)"],
        {**_WORKFLOW, "failed_tasks": 2.0},
    ),
    (
        "workflow.tasks_total",
        {"workflow": "cv", "task": "D_run_cv", "state": "skipped"},
        {"workflow": "cv", "task": "D_run_cv", "state": "succeeded"},
        "workflow",
        DEGRADED,
        ["2 skipped workflow task(s)"],
        {**_WORKFLOW, "skipped_tasks": 2.0},
    ),
    (
        "fleet.cells_total",
        {"status": "error"},
        {"status": "ok"},
        "fleet",
        UNHEALTHY,
        ["2 fleet cell(s) crashed"],
        {"cells_errored": 2.0},
    ),
    (
        "chaos.faults_total",
        {"kind": "link-down"},
        None,
        "chaos",
        DEGRADED,
        ["2 chaos fault(s) injected in window"],
        {"faults_injected": 2.0},
    ),
    (
        "durability.lease_fenced_total",
        {"method": "Status_JKem"},
        None,
        "durability",
        DEGRADED,
        ["2 stale-lease call(s) fenced in window"],
        {**_DURABILITY, "lease_fenced": 2.0},
    ),
    (
        "durability.torn_tails_total",
        {},
        None,
        "durability",
        DEGRADED,
        ["2 torn journal tail(s) detected (crash mid-append)"],
        {**_DURABILITY, "torn_tails": 2.0},
    ),
    (
        "recovery.daemon_restarts_total",
        {},
        None,
        "durability",
        DEGRADED,
        ["2 daemon restart(s) in window (recovering)"],
        {**_DURABILITY, "daemon_restarts": 2.0},
    ),
    (
        "recovery.resumes_total",
        {},
        None,
        "durability",
        HEALTHY,
        [],
        {**_DURABILITY, "campaign_resumes": 2.0},
    ),
    (
        "gateway.jobs_finished_total",
        {"status": "failed", "tenant": "lab-a"},
        {"status": "succeeded", "tenant": "lab-a"},
        "gateway",
        DEGRADED,
        ["2 gateway job(s) failed in window"],
        {**_GATEWAY, "jobs_failed": 2.0},
    ),
    (
        "gateway.rejects_total",
        {"reason": "auth"},
        {"reason": "quota"},
        "gateway",
        DEGRADED,
        ["2 tenant auth rejection(s) in window"],
        {**_GATEWAY, "auth_rejects": 2.0},
    ),
    (
        "gateway.scheduler_skips_total",
        {"cell": "c1", "verdict": "degraded"},
        None,
        "gateway",
        DEGRADED,
        ["2 placement(s) skipped an unhealthy cell in window"],
        {**_GATEWAY, "unhealthy_cell_skips": 2.0},
    ),
]


def _engine(**thresholds):
    metrics = MetricsRegistry()
    engine = HealthEngine(
        metrics,
        clock=VirtualClock(),
        window_s=60.0,
        thresholds=HealthThresholds(**thresholds) if thresholds else None,
    )
    return metrics, engine


def _entry(subsystem, status, reasons, details):
    return {
        "subsystem": subsystem,
        "status": status,
        "reasons": reasons,
        "details": details,
    }


@pytest.mark.parametrize(
    "name, labels, other, subsystem, status, reasons, details",
    COUNTER_CASES,
    ids=[f"{case[0]}-{case[4]}" for case in COUNTER_CASES],
)
def test_counter_rule_verdict(
    name, labels, other, subsystem, status, reasons, details
):
    metrics, engine = _engine()
    counter = metrics.counter(name)
    for _ in range(3 if name == "resilience.retries_total" else 2):
        counter.inc(**labels)
    if other is not None:
        counter.inc(3, **other)
    report = engine.evaluate()
    assert report.status == status
    assert report.subsystems[subsystem].to_dict() == _entry(
        subsystem, status, reasons, details
    )
    for sub in report.subsystems.values():
        if sub.subsystem != subsystem:
            assert sub.status == HEALTHY and sub.reasons == []


def test_counter_cases_cover_every_rule_row():
    from repro.obs.health import COUNTER_RULES

    assert len(COUNTER_RULES) == 14
    rows = {(row[0], row[1], tuple(sorted(row[2].items()))) for row in COUNTER_RULES}
    covered = set()
    for name, labels, _other, subsystem, *_ in COUNTER_CASES:
        for row_sub, row_name, row_filter in rows:
            if row_name == name and all(
                labels.get(k) == v for k, v in row_filter
            ):
                covered.add((row_sub, row_name, row_filter))
                assert row_sub == subsystem
    assert covered == rows


@pytest.mark.parametrize(
    "ok, errors, status, reasons, details",
    [
        (
            5,
            5,
            UNHEALTHY,
            ["client error rate 50% (5/10 calls in window)"],
            {"calls": 10.0, "errors": 5.0, "error_rate": 0.5},
        ),
        (
            19,
            1,
            DEGRADED,
            ["client error rate 5% (1/20 calls in window)"],
            {"calls": 20.0, "errors": 1.0, "error_rate": 0.05},
        ),
        (1, 1, HEALTHY, [], {"calls": 2.0, "errors": 1.0}),
    ],
    ids=["unhealthy", "degraded", "abstains"],
)
def test_rpc_error_rate_verdict(ok, errors, status, reasons, details):
    metrics, engine = _engine()
    calls = metrics.counter("rpc.client.calls_total")
    calls.inc(ok, method="Status_JKem", status="ok")
    calls.inc(errors, method="Status_JKem", status="error")
    report = engine.evaluate()
    assert report.status == status
    assert report.subsystems["rpc"].to_dict() == _entry(
        "rpc", status, reasons, details
    )


@pytest.mark.parametrize(
    "thresholds, status",
    [
        ({"rpc_p95_degraded_s": 0.1, "rpc_p95_unhealthy_s": 10.0}, DEGRADED),
        ({"rpc_p95_degraded_s": 0.1, "rpc_p95_unhealthy_s": 0.4}, UNHEALTHY),
    ],
    ids=["degraded", "unhealthy"],
)
def test_rpc_p95_verdict(thresholds, status):
    metrics, engine = _engine(**thresholds)
    latency = metrics.histogram("rpc.client.call_latency_s")
    for _ in range(20):
        latency.observe(0.5, method="Status_JKem")
    report = engine.evaluate()
    assert report.status == status
    assert report.subsystems["rpc"].to_dict() == _entry(
        "rpc",
        status,
        ["p95 call latency 0.50s"],
        {"calls": 0.0, "errors": 0.0, "p95_latency_s": 0.5},
    )


@pytest.mark.parametrize(
    "value, status, reasons",
    [
        (1, UNHEALTHY, ["breaker 'control' open"]),
        (2, DEGRADED, ["breaker 'control' half-open (probing)"]),
        (0, HEALTHY, []),
    ],
    ids=["open", "half-open", "closed"],
)
def test_breaker_gauge_verdict(value, status, reasons):
    metrics, engine = _engine()
    metrics.gauge("resilience.breaker.state").set(value, breaker="control")
    report = engine.evaluate()
    assert report.status == status
    assert report.subsystems["resilience"].to_dict() == _entry(
        "resilience", status, reasons, {"retries": 0.0}
    )
