"""GATEWAY1 — fairness, quota enforcement, and crash-restart integrity.

PR 8 put a multi-tenant gateway in front of the instrument cells: a
journal-backed job queue, weighted stride scheduling, per-tenant quotas
and rate limits. This benchmark prices the scheduler's *contracts*, not
raw speed — with four tenants of very unequal load sharing two cells:

- **no tenant starves**: while tenant *t* has queued work, at most
  ``sum(ceil(w_u / w_t))`` other placements separate two of its
  services (the stride bound), no matter how deep the heavy tenants'
  backlogs are;
- **weighted shares hold**: while every tenant is backlogged, each
  window of placements splits in weight proportion, exactly;
- **quotas enforce**: a tenant over its active-job cap is rejected with
  the stable ``GATEWAY_QUOTA_EXCEEDED`` code, and the rejection is
  metered;
- **a crashed gateway restarts whole**: jobs queued at the moment of
  death are all still queued after reopening the journal, and across
  the whole run every job executes exactly once — zero duplicates.

The run emits ``BENCH_gateway.json``: placement shares, starvation
gaps, scheduling throughput, the pre-crash step-latency distribution
frozen as a ``repro-baseline-1`` document and the post-restart drain
judged against it — the artifact CI uploads so scheduler behaviour is
diffable release to release.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from repro.errors import QuotaExceededError
from repro.gateway import Cell, Gateway, SUCCEEDED, TenantSpec
from repro.obs import MetricsRegistry
from repro.obs.baseline import BaselineStore

#: Four tenants, unequal weights AND unequal load.
TENANTS = (
    TenantSpec("phys", "key-phys", weight=1.0, max_active=8),
    TenantSpec("chem", "key-chem", weight=1.0, max_active=64),
    TenantSpec("bio", "key-bio", weight=2.0, max_active=64),
    TenantSpec("ml", "key-ml", weight=4.0, max_active=64),
)
LOADS = {"phys": 8, "chem": 12, "bio": 20, "ml": 36}
WEIGHTS = {s.tenant_id: s.weight for s in TENANTS}
WEIGHT_TOTAL = sum(WEIGHTS.values())
CELLS = 2

#: Window where every tenant is still backlogged; shares are exact there.
SHARE_WINDOW = 24

QUOTA_ATTEMPTS = 12  # against phys's max_active of 8
RESTART_PER_TENANT = 6
RESTART_RUN_BEFORE_CRASH = 10

SPEC = {
    "strategy": {"kind": "scan-rate", "scan_rates_v_s": [0.1], "base": {}},
    "max_rounds": 1,
}


def _stats(samples: list[float]) -> dict[str, float]:
    arr = np.asarray(samples, dtype=float)
    return {
        "mean_s": float(arr.mean()),
        "p95_s": float(np.percentile(arr, 95)),
        "count": int(arr.size),
    }


def _build(tmp_path, executions, metrics=None):
    def runner(job, cell, ctx):
        executions.setdefault(job.job_id, []).append(ctx.resume)
        return {"state": SUCCEEDED, "rounds": 1}

    return Gateway(
        [Cell(f"cell-{i}") for i in range(CELLS)],
        tmp_path / "gw",
        tenants=TENANTS,
        runner=runner,
        metrics=metrics,
        fsync=False,  # benchmark: price the scheduler, not the disk
    )


def _drain(gateway, placements, step_samples):
    """Step the queue dry, recording placement order and step latency."""
    drained = 0
    while True:
        start = time.perf_counter()
        view = gateway.step()
        if view is None:
            return drained
        step_samples.append(time.perf_counter() - start)
        placements.append(view["tenant"])
        drained += 1


def _max_gaps(order: list[str]) -> dict[str, int]:
    """Per tenant: the longest placement-to-placement gap while queued."""
    gaps: dict[str, int] = {}
    last: dict[str, int] = {t: -1 for t in LOADS}
    remaining = dict(LOADS)
    for i, tenant in enumerate(order):
        gaps[tenant] = max(gaps.get(tenant, 0), i - last[tenant])
        last[tenant] = i
        remaining[tenant] -= 1
    return gaps


def test_gateway_fairness_quota_and_restart(tmp_path, capsys):
    executions: dict[str, list[bool]] = {}
    metrics = MetricsRegistry()

    # -- phase 1: fairness under unequal backlog ---------------------------
    gateway = _build(tmp_path, executions, metrics=metrics)
    for spec in TENANTS:
        for _ in range(LOADS[spec.tenant_id]):
            gateway.submit(spec.tenant_id, spec.api_key, SPEC)
    placements: list[str] = []
    fair_steps: list[float] = []
    wall_start = time.perf_counter()
    drained = _drain(gateway, placements, fair_steps)
    fair_wall = time.perf_counter() - wall_start
    assert drained == sum(LOADS.values())

    # exact weighted shares while everyone is backlogged
    window = placements[:SHARE_WINDOW]
    shares = {t: window.count(t) for t in LOADS}
    expected = {
        t: round(SHARE_WINDOW * WEIGHTS[t] / WEIGHT_TOTAL) for t in LOADS
    }
    assert shares == expected, (shares, expected)

    # the starvation bound, per tenant, over the whole drain: between two
    # services of t, each other tenant u fits at most ceil(w_u / w_t)
    # placements into t's stride interval
    gaps = _max_gaps(placements)
    bounds = {
        t: 1
        + sum(
            math.ceil(WEIGHTS[u] / WEIGHTS[t]) for u in LOADS if u != t
        )
        for t in LOADS
    }
    for tenant, gap in gaps.items():
        assert gap <= bounds[tenant], (
            f"{tenant} went {gap} placements without service "
            f"(bound {bounds[tenant]})"
        )

    # -- phase 2: quota enforcement ----------------------------------------
    accepted, rejected, codes = 0, 0, set()
    for _ in range(QUOTA_ATTEMPTS):
        try:
            gateway.submit("phys", "key-phys", SPEC)
            accepted += 1
        except QuotaExceededError as exc:
            rejected += 1
            codes.add(exc.code)
    assert accepted == 8 and rejected == QUOTA_ATTEMPTS - 8
    assert codes == {"GATEWAY_QUOTA_EXCEEDED"}
    assert (
        metrics.counter("gateway.rejects_total").value(reason="quota")
        == rejected
    )
    gateway.run_until_idle()

    # -- phase 3: crash mid-queue, restart, drain --------------------------
    for spec in TENANTS:
        for _ in range(RESTART_PER_TENANT):
            gateway.submit(spec.tenant_id, spec.api_key, SPEC)
    gateway.run_until_idle(max_jobs=RESTART_RUN_BEFORE_CRASH)
    queued_at_crash = gateway.queue_depth()
    assert queued_at_crash == len(TENANTS) * RESTART_PER_TENANT - (
        RESTART_RUN_BEFORE_CRASH
    )
    gateway.store.close()  # the crash: no orderly shutdown, journal only

    reopened = _build(tmp_path, executions)
    assert reopened.queue_depth() == queued_at_crash
    restart_placements: list[str] = []
    restart_steps: list[float] = []
    assert _drain(reopened, restart_placements, restart_steps) == (
        queued_at_crash
    )
    reopened.close()

    # ZERO duplicate executions across the entire run: every job ran
    # exactly once (nothing was mid-flight at the crash, so nothing may
    # have been re-executed either)
    double_runs = {j: r for j, r in executions.items() if len(r) != 1}
    assert not double_runs, double_runs
    total_jobs = sum(LOADS.values()) + accepted + len(TENANTS) * (
        RESTART_PER_TENANT
    )
    assert len(executions) == total_jobs

    # -- artifact: pre-crash step latency frozen, restart drain judged -----
    store = BaselineStore()
    store.record_baseline({"gateway.step": _stats(fair_steps)})
    verdicts = store.compare({"gateway.step": _stats(restart_steps)})

    throughput = drained / fair_wall
    report = {
        "schema": "repro-bench-gateway-1",
        "workload": {
            "tenants": {
                s.tenant_id: {
                    "weight": s.weight,
                    "load": LOADS[s.tenant_id],
                    "max_active": s.max_active,
                }
                for s in TENANTS
            },
            "cells": CELLS,
            "share_window": SHARE_WINDOW,
        },
        "fairness": {
            "placements_first_window": shares,
            "expected_first_window": expected,
            "max_gap": gaps,
            "starvation_bound": bounds,
        },
        "throughput_jobs_per_s": throughput,
        "quota": {
            "attempted": QUOTA_ATTEMPTS,
            "accepted": accepted,
            "rejected": rejected,
            "code": "GATEWAY_QUOTA_EXCEEDED",
        },
        "restart": {
            "queued_at_crash": queued_at_crash,
            "queued_after_reopen": queued_at_crash,
            "duplicate_executions": len(double_runs),
            "jobs_total": total_jobs,
        },
        "baselines": store.to_dict(),
        "verdicts": verdicts,
    }
    Path("BENCH_gateway.json").write_text(
        json.dumps(report, indent=2, sort_keys=True)
    )

    with capsys.disabled():
        worst = max(gaps[t] / bounds[t] for t in gaps)
        print(
            f"\n[GATEWAY1] {drained} jobs, 4 tenants / {CELLS} cells "
            f"@ {throughput:,.0f} jobs/s | shares {shares} "
            f"(exact) | worst gap {worst:.0%} of bound | quota "
            f"{rejected}/{QUOTA_ATTEMPTS} rejected "
            f"| restart kept {queued_at_crash} queued, 0 duplicates "
            f"-> BENCH_gateway.json"
        )

    assert not BaselineStore.regressions(verdicts), verdicts
