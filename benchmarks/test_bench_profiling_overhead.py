"""PROF1 — what continuous profiling + live streaming cost per span.

Inside a profiled block every span stamps its thread and thread CPU
time and lands in the block's span list, and the telemetry bus
publishes every finished span to each subscriber ring — all inline with
the workflow. The design target is <5% added wall time on the paper's
five-task CV workflow with everything on (profiled block + live stream
with an active subscriber + metric streaming).

The e2e workflow wall time is dominated by simulated instrument waits
with tens of milliseconds of scheduler jitter, so gating a 5% target on
raw e2e wall clock would measure noise. Instead this file prices the
per-span cost head-to-head in a tight loop (the same interleaved
best-of-batches method as OBS1/RES1), counts how many spans the real
workflow produces, and gates on the projected fraction of the measured
e2e wall time — the same projection style OBS1 uses for its RTT gate.

The run also emits ``BENCH_profile.json``: the ``repro-profile-1``
document from a profiled e2e run, the per-operation latency baselines
(``repro-baseline-1``) recorded from it, and the overhead numbers —
the artifact CI uploads so the perf trajectory is diffable release to
release.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import repro
from repro.core.cv_workflow import CVWorkflowSettings
from repro.obs import MetricsRegistry, Tracer
from repro.obs.profiler import profiled
from repro.obs.stream import TelemetryBus

SETTINGS = CVWorkflowSettings(e_step_v=0.01)
BATCHES, SPANS_PER_BATCH = 20, 400


def _per_span_cost(tracer: Tracer) -> float:
    """Best-of-batches seconds per open+close of one span."""
    best = float("inf")
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(SPANS_PER_BATCH):
            with tracer.start_as_current_span("bench.op"):
                pass
        best = min(best, time.perf_counter() - start)
    return best / SPANS_PER_BATCH


def test_profiling_overhead_under_five_percent(capsys):
    # -- per-span price, bare vs fully observed --------------------------
    bare_tracer = Tracer("bare", max_spans=SPANS_PER_BATCH * 2)
    observed_tracer = Tracer("observed", max_spans=SPANS_PER_BATCH * 2)
    metrics = MetricsRegistry()
    bus = TelemetryBus("dgx-session", metrics=metrics)
    removers = [
        observed_tracer.add_sink(bus.publish_span),
        metrics.halves.dgx.add(bus.publish_metric),
        metrics.halves.acl.add(bus.publish_metric),
    ]
    subscription = bus.subscribe(capacity=SPANS_PER_BATCH * 2)

    timings = {"bare": float("inf"), "observed": float("inf")}
    with profiled(observed_tracer) as profiler:
        for _ in range(2):  # interleave so clock drift hits both alike
            timings["bare"] = min(timings["bare"], _per_span_cost(bare_tracer))
            timings["observed"] = min(
                timings["observed"], _per_span_cost(observed_tracer)
            )
            subscription.poll()  # keep the ring from saturating
    delta_per_span = timings["observed"] - timings["bare"]
    for remove in removers:
        remove()

    # the observed stack really did observe
    assert profiler.profile()["operations"]["bench.op"]["count"] > 0

    # -- e2e run: span volume, wall time, and the shipped artifact -------
    with repro.connect() as session:
        session.run_workflow(settings=SETTINGS)  # warm the stack
        drained = []
        start = time.perf_counter()
        with session.stream() as stream:
            result = session.run_workflow(settings=SETTINGS, profile=True)
            drained = stream.drain()
        observed_wall_s = time.perf_counter() - start
        assert result.succeeded and result.profile is not None
        assert drained, "the live feed saw nothing"
        store = session.record_baseline()
        baselines = store.to_dict()

    profile_doc = result.profile
    spans_in_run = sum(
        stats["count"] for stats in profile_doc["operations"].values()
    )
    projected_overhead = (
        max(0.0, delta_per_span) * spans_in_run / observed_wall_s
    )

    report = {
        "schema": "repro-bench-profile-1",
        "settings": {"e_step_v": SETTINGS.e_step_v},
        "per_span_bare_s": timings["bare"],
        "per_span_observed_s": timings["observed"],
        "per_span_delta_s": delta_per_span,
        "e2e_wall_s": observed_wall_s,
        "e2e_spans": spans_in_run,
        "projected_overhead_fraction": projected_overhead,
        "profile": profile_doc,
        "baselines": baselines,
    }
    Path("BENCH_profile.json").write_text(
        json.dumps(report, indent=2, sort_keys=True)
    )

    with capsys.disabled():
        print(
            f"\n[PROF1] bare={timings['bare'] * 1e6:.2f}us/span "
            f"observed={timings['observed'] * 1e6:.2f}us/span "
            f"delta={delta_per_span * 1e6:+.2f}us | e2e {spans_in_run} spans "
            f"in {observed_wall_s:.3f}s -> projected "
            f"{projected_overhead * 100:+.3f}% (target < 5%) "
            f"-> BENCH_profile.json"
        )
    # gates: the projection is the design target; the absolute per-span
    # cost bound catches egregious regressions even on noisy boxes
    assert projected_overhead < 0.05
    assert delta_per_span < 500e-6


def test_profile_document_covers_the_workflow():
    """The emitted document names the paper's tasks and layers."""
    with repro.connect() as session:
        result = session.run_workflow(settings=SETTINGS, profile=True)
    doc = result.profile
    assert doc["schema"] == "repro-profile-1"
    operations = set(doc["operations"])
    assert any(name.startswith("task.") for name in operations)
    assert any(name.startswith("rpc.call.") for name in operations)
    # self-time never exceeds total time for any operation
    for stats in doc["operations"].values():
        assert stats["self_s"] <= stats["total_s"] + 1e-9
