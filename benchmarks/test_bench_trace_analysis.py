"""TRACE1 — the diagnosis plane earns its keep (and stays cheap).

Three gates, one artifact:

1. **Blame accounting** — the critical path of the pipelined
   cross-facility CV workflow must attribute >=90% of the root's wall
   time to concrete operations, and the top contributor must be an
   instrument-side op (the paper's bottleneck: the potentiostat wait).
2. **Tail sampling fidelity** — at a 10% per-tenant budget, injected
   slow and error traces are kept 100% while normal traffic lands in a
   [5%, 15%] keep band per tenant (the deterministic counters pin it at
   exactly 10%; the band allows for counter-phase effects at small N).
3. **Overhead** — indexing + sampling priced per span head-to-head in a
   tight loop (interleaved best-of-batches, the PROF1/OBS1 method) and
   projected over the e2e run's real span volume must stay under the 5%
   observability budget.

The run emits ``BENCH_trace.json`` — blame table, per-tenant sampling
stats, overhead numbers, and ``BaselineStore`` verdicts comparing a
second e2e run against the first — the artifact CI uploads so the
trajectory is diffable release to release.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import repro
from repro.clock import VirtualClock
from repro.core.config import SessionConfig
from repro.obs import Tracer
from repro.obs.analysis import TraceIndex, TraceSampler
from repro.obs.baseline import BaselineStore

BATCHES, SPANS_PER_BATCH = 20, 400
BUDGET = 0.10


# ---------------------------------------------------------------------------
# gate 1 + 3 + artifact: e2e workflow with the full diagnosis plane on
# ---------------------------------------------------------------------------


def _per_span_cost(tracer: Tracer) -> float:
    """Best-of-batches seconds per open+close of one root span."""
    best = float("inf")
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(SPANS_PER_BATCH):
            with tracer.start_as_current_span("bench.op"):
                pass
        best = min(best, time.perf_counter() - start)
    return best / SPANS_PER_BATCH


def test_blame_and_overhead_on_e2e_workflow(capsys):
    # -- per-span price, bare vs indexed+sampled -------------------------
    bare = Tracer("bare", max_spans=SPANS_PER_BATCH * 2)
    analyzed = Tracer("analyzed", max_spans=SPANS_PER_BATCH * 2)
    TraceSampler(budget=BUDGET).attach(analyzed)
    TraceIndex().attach(analyzed)

    timings = {"bare": float("inf"), "analyzed": float("inf")}
    for _ in range(2):  # interleave so clock drift hits both alike
        timings["bare"] = min(timings["bare"], _per_span_cost(bare))
        timings["analyzed"] = min(
            timings["analyzed"], _per_span_cost(analyzed)
        )
    delta_per_span = timings["analyzed"] - timings["bare"]

    # -- e2e run with the diagnosis plane wired through the facade -------
    config = SessionConfig(trace_sample_budget=BUDGET)
    with repro.connect(session=config) as session:
        session.run_workflow()  # warm the stack
        start = time.perf_counter()
        result = session.run_workflow(profile=True)
        wall_s = time.perf_counter() - start
        assert result.succeeded and result.profile is not None
        store = BaselineStore(clock=session.tracer.clock)
        store.record_baseline(session.tracer.summarize())

        # -- gate 1: blame table over the measured run's trace -----------
        # newest-first workflow-rooted query so neither the warm-up run
        # (cold connection establishment dominates it) nor stray
        # post-run RPC traces are the one judged
        summaries = session.trace_index.query(op="workflow", limit=1)
        assert summaries, "the index saw no traces"
        blame = session.trace_index.explain(summaries[0]["trace_id"])
        assert blame is not None

        # -- second run for baseline verdicts ----------------------------
        session.run_workflow()
        verdicts = store.compare(session.tracer.summarize())

    spans_in_run = sum(
        stats["count"] for stats in result.profile["operations"].values()
    )
    projected = max(0.0, delta_per_span) * spans_in_run / wall_s

    top = blame["blame"][0]
    report = {
        "schema": "repro-bench-trace-1",
        "settings": {"budget": BUDGET},
        "blame": {
            "trace_id": blame["trace_id"],
            "root": blame["root"],
            "root_duration_s": blame["root_duration_s"],
            "coverage": blame["coverage"],
            "span_count": blame["span_count"],
            "top": blame["blame"][:10],
        },
        "overhead": {
            "per_span_bare_s": timings["bare"],
            "per_span_analyzed_s": timings["analyzed"],
            "per_span_delta_s": delta_per_span,
            "e2e_wall_s": wall_s,
            "e2e_spans": spans_in_run,
            "projected_overhead_fraction": projected,
        },
        "baseline_verdicts": verdicts,
    }
    path = Path("BENCH_trace.json")
    existing = json.loads(path.read_text()) if path.exists() else {}
    existing.update(report)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True))

    with capsys.disabled():
        print(
            f"\n[TRACE1] blame coverage={blame['coverage'] * 100:.1f}% "
            f"top={top['op']} ({top['pct']:.1f}%) | "
            f"bare={timings['bare'] * 1e6:.2f}us/span "
            f"analyzed={timings['analyzed'] * 1e6:.2f}us/span "
            f"delta={delta_per_span * 1e6:+.2f}us | e2e {spans_in_run} "
            f"spans in {wall_s:.3f}s -> projected {projected * 100:+.3f}% "
            f"(target < 5%) -> BENCH_trace.json"
        )

    # gate 1: the blame table accounts for the root's wall time and
    # points at the instrument — the paper's actual bottleneck
    assert blame["coverage"] >= 0.90
    assert top["op"].startswith("instrument.")
    # gate 3: projection is the design target; the absolute bound
    # catches egregious regressions even on noisy boxes
    assert projected < 0.05
    assert delta_per_span < 500e-6
    # no regression verdicts between back-to-back identical runs
    regressed = [
        name
        for name, verdict in verdicts.items()
        if verdict["status"] == "regressed"
        and verdict.get("severity") == "unhealthy"
    ]
    assert not regressed, f"unhealthy regressions: {regressed}"


# ---------------------------------------------------------------------------
# gate 2: sampling fidelity under a mixed burst
# ---------------------------------------------------------------------------


def _end_trace(tracer, clock, *, duration, tenant, status=None):
    root = tracer.start_span(
        "workflow.run", parent=None, attributes={"tenant": tenant}
    )
    clock.advance(duration)
    root.end(status)
    return root.trace_id


def test_tail_sampling_keeps_signal_within_budget(capsys):
    clock = VirtualClock()
    tracer = Tracer("dgx-session", clock=clock, max_spans=4096)
    sampler = TraceSampler(
        budget=BUDGET, slow_threshold_s=30.0, max_kept_ids=4096
    )
    sampler.add_sink(lambda span: None)
    sampler.attach(tracer)

    tenants = ("lab-a", "lab-b")
    normal: dict[str, list[str]] = {t: [] for t in tenants}
    signal: list[str] = []
    # interleave normal traffic with a slow+error burst per tenant
    for i in range(100):
        for tenant in tenants:
            normal[tenant].append(
                _end_trace(tracer, clock, duration=0.05, tenant=tenant)
            )
        if i % 10 == 5:
            for tenant in tenants:
                signal.append(
                    _end_trace(tracer, clock, duration=31.0, tenant=tenant)
                )
                signal.append(
                    _end_trace(
                        tracer,
                        clock,
                        duration=0.05,
                        tenant=tenant,
                        status="ERROR",
                    )
                )

    kept_signal = sum(1 for tid in signal if sampler.is_kept(tid))
    rates = {
        tenant: sum(1 for tid in ids if sampler.is_kept(tid)) / len(ids)
        for tenant, ids in normal.items()
    }

    report = {
        "sampling": {
            "budget": BUDGET,
            "signal_traces": len(signal),
            "signal_kept": kept_signal,
            "normal_keep_rate": rates,
            "stats": sampler.stats(),
        }
    }
    path = Path("BENCH_trace.json")
    existing = json.loads(path.read_text()) if path.exists() else {}
    existing.update(report)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True))

    with capsys.disabled():
        rendered = ", ".join(
            f"{tenant}={rate * 100:.1f}%" for tenant, rate in rates.items()
        )
        print(
            f"\n[TRACE1] sampling: signal kept {kept_signal}/{len(signal)} "
            f"(gate 100%) | normal keep {rendered} (gate 5%..15%)"
        )

    # every slow/error trace survives; normal traffic stays on budget
    assert kept_signal == len(signal)
    for tenant, rate in rates.items():
        assert 0.05 <= rate <= 0.15, f"{tenant} keep-rate {rate:.3f}"
