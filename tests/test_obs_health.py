"""Health engine: quantile estimation edges, rule verdicts, the gate.

The tier-1 half exercises :func:`bucket_quantile` /
:meth:`Histogram.quantile` edge cases and each :class:`HealthEngine`
rule against hand-incremented counters; the e2e half checks the
acceptance pair — a clean run reports ``healthy``, a chaos partition
reports ``unhealthy`` — through ``session.health_engine.evaluate()``.
"""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.core.cv_workflow import CVWorkflowSettings
from repro.errors import HealthGateError
from repro.obs import MetricsRegistry
from repro.obs.metrics import bucket_quantile
from repro.obs.health import (
    DEGRADED,
    HEALTHY,
    SUBSYSTEMS,
    UNHEALTHY,
    HealthEngine,
    HealthThresholds,
    require_healthy,
    worst,
)
from repro.resilience import RetryPolicy


class TestBucketQuantile:
    def test_empty_distribution_returns_none(self):
        assert (
            bucket_quantile((1.0, 2.0), [0, 0, 0], 0, 0.5, 0.0, 0.0) is None
        )
        histogram = MetricsRegistry().histogram("latency", "never observed")
        assert histogram.quantile(0.95) is None

    def test_invalid_q_raises(self):
        with pytest.raises(ValueError):
            bucket_quantile((1.0,), [0, 0], 1, 1.5, 0.0, 1.0)
        histogram = MetricsRegistry().histogram("latency", "empty")
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_q_zero_and_one_return_observed_extremes(self):
        histogram = MetricsRegistry().histogram("latency", "two points")
        histogram.observe(0.003)
        histogram.observe(0.7)
        assert histogram.quantile(0.0) == pytest.approx(0.003)
        assert histogram.quantile(1.0) == pytest.approx(0.7)

    def test_single_observation_returns_the_observation(self):
        # the bucket bound would say 0.005; clamping to the observed
        # range must return the actual value for every q
        histogram = MetricsRegistry().histogram("latency", "one point")
        histogram.observe(0.004)
        for q in (0.1, 0.5, 0.95):
            assert histogram.quantile(q) == pytest.approx(0.004)

    def test_single_bucket_distribution(self):
        # everything in one interior bucket: interpolation stays inside
        # it and clamps to the observed extremes
        estimate = bucket_quantile((1.0, 2.0), [0, 10, 0], 10, 0.5, 1.2, 1.9)
        assert estimate == pytest.approx(1.5)
        assert bucket_quantile(
            (1.0, 2.0), [0, 10, 0], 10, 0.01, 1.2, 1.9
        ) == pytest.approx(1.2)  # clamped up to the observed minimum

    def test_inf_overflow_bucket_returns_observed_max(self):
        # rank lands past the last finite bound: the overflow bucket has
        # no upper edge, so the only honest point estimate is the max
        histogram = MetricsRegistry().histogram("latency", "huge values")
        histogram.observe(0.001)
        histogram.observe(90_000.0)
        histogram.observe(120_000.0)
        assert histogram.quantile(0.95) == pytest.approx(120_000.0)

    def test_per_label_series_are_independent(self):
        histogram = MetricsRegistry().histogram("latency", "labelled")
        histogram.observe(0.001, method="fast")
        histogram.observe(5.0, method="slow")
        assert histogram.quantile(1.0, method="fast") == pytest.approx(0.001)
        assert histogram.quantile(1.0, method="slow") == pytest.approx(5.0)
        assert histogram.quantile(0.5, method="absent") is None


def _engine(**thresholds):
    clock = VirtualClock()
    metrics = MetricsRegistry()
    engine = HealthEngine(
        metrics,
        clock=clock,
        window_s=60.0,
        thresholds=HealthThresholds(**thresholds) if thresholds else None,
    )
    return metrics, engine, clock


class TestHealthRules:
    def test_clean_registry_is_healthy_everywhere(self):
        _metrics, engine, _clock = _engine()
        report = engine.evaluate()
        assert report.status == HEALTHY
        assert report.healthy and not report.unhealthy
        assert set(report.subsystems) == set(SUBSYSTEMS)
        assert report.reasons() == []

    def test_rpc_error_rate_unhealthy(self):
        metrics, engine, _clock = _engine()
        calls = metrics.counter("rpc.client.calls_total")
        for _ in range(5):
            calls.inc(method="Status_JKem", status="ok")
        for _ in range(5):
            calls.inc(method="Status_JKem", status="error")
        report = engine.evaluate()
        sub = report.subsystems["rpc"]
        assert sub.status == UNHEALTHY
        assert any("error rate" in r for r in sub.reasons)
        assert sub.details["error_rate"] == pytest.approx(0.5)

    def test_rpc_abstains_below_min_calls(self):
        # one failed call out of two is not a 50% outage
        metrics, engine, _clock = _engine()
        calls = metrics.counter("rpc.client.calls_total")
        calls.inc(method="Status_JKem", status="ok")
        calls.inc(method="Status_JKem", status="error")
        assert engine.evaluate().subsystems["rpc"].status == HEALTHY

    def test_rpc_p95_latency_thresholds(self):
        metrics, engine, _clock = _engine(
            rpc_p95_degraded_s=0.1, rpc_p95_unhealthy_s=10.0
        )
        latency = metrics.histogram("rpc.client.call_latency_s")
        for _ in range(20):
            latency.observe(0.5, method="Status_JKem")
        report = engine.evaluate()
        assert report.subsystems["rpc"].status == DEGRADED
        assert any("p95" in r for r in report.subsystems["rpc"].reasons)

    def test_breaker_gauge_states(self):
        metrics, engine, _clock = _engine()
        state = metrics.gauge("resilience.breaker.state")
        state.set(1, breaker="control")
        report = engine.evaluate()
        assert report.subsystems["resilience"].status == UNHEALTHY
        state.set(2, breaker="control")
        report = engine.evaluate()
        assert report.subsystems["resilience"].status == DEGRADED
        state.set(0, breaker="control")
        assert engine.evaluate().subsystems["resilience"].status == HEALTHY

    def test_retry_volume_degraded(self):
        metrics, engine, _clock = _engine()
        retries = metrics.counter("resilience.retries_total")
        for _ in range(3):
            retries.inc(method="Status_JKem", error_type="ConnectionError")
        assert engine.evaluate().subsystems["resilience"].status == DEGRADED

    def test_datachannel_verify_and_poll_failures(self):
        metrics, engine, _clock = _engine()
        metrics.counter("datachannel.watcher.poll_failures_total").inc(
            directory="/"
        )
        report = engine.evaluate()
        assert report.subsystems["datachannel"].status == DEGRADED
        metrics.counter("datachannel.verify_failures_total").inc(
            path="run.mpt"
        )
        report = engine.evaluate()
        assert report.subsystems["datachannel"].status == UNHEALTHY
        assert any("verify" in r for r in report.subsystems["datachannel"].reasons)

    def test_workflow_failed_and_skipped_tasks(self):
        metrics, engine, _clock = _engine()
        tasks = metrics.counter("workflow.tasks_total")
        tasks.inc(workflow="cv", task="D_run_cv", state="skipped")
        assert engine.evaluate().subsystems["workflow"].status == DEGRADED
        tasks.inc(workflow="cv", task="C_fill_cell", state="failed")
        assert engine.evaluate().subsystems["workflow"].status == UNHEALTHY

    def test_fleet_cell_crash_unhealthy(self):
        metrics, engine, _clock = _engine()
        metrics.counter("fleet.cells_total").inc(status="error")
        assert engine.evaluate().subsystems["fleet"].status == UNHEALTHY

    def test_chaos_faults_degraded(self):
        metrics, engine, _clock = _engine()
        metrics.counter("chaos.faults_total").inc(kind="link-down")
        report = engine.evaluate()
        assert report.subsystems["chaos"].status == DEGRADED
        assert report.status == DEGRADED

    def test_construction_snapshot_baselines_prior_traffic(self):
        # failures recorded before the engine existed are not its problem
        clock = VirtualClock()
        metrics = MetricsRegistry()
        for _ in range(10):
            metrics.counter("rpc.client.calls_total").inc(
                method="Status_JKem", status="error"
            )
        engine = HealthEngine(metrics, clock=clock, window_s=60.0)
        assert engine.evaluate().subsystems["rpc"].status == HEALTHY

    def test_window_expiry_forgives_old_failures(self):
        metrics, engine, clock = _engine()
        calls = metrics.counter("rpc.client.calls_total")
        for _ in range(10):
            calls.inc(method="Status_JKem", status="error")
        assert engine.evaluate().subsystems["rpc"].status == UNHEALTHY
        # once a newer baseline ages into the window the old failures
        # fall out of the delta
        clock.sleep(120.0)
        assert engine.evaluate().subsystems["rpc"].status == HEALTHY

    def test_watch_probe_escalates_with_streak(self):
        class FakeWatcher:
            failure_streak = 0

        _metrics, engine, _clock = _engine()
        watcher = FakeWatcher()
        engine.watch(watcher)
        assert engine.evaluate().subsystems["datachannel"].status == HEALTHY
        watcher.failure_streak = 1
        assert engine.evaluate().subsystems["datachannel"].status == DEGRADED
        watcher.failure_streak = 5
        report = engine.evaluate()
        assert report.subsystems["datachannel"].status == UNHEALTHY
        assert any("streak" in r for r in report.subsystems["datachannel"].reasons)

    def test_raising_probe_reports_degraded_not_crash(self):
        _metrics, engine, _clock = _engine()
        engine.register_probe(
            "rpc", lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        report = engine.evaluate()
        assert report.subsystems["rpc"].status == DEGRADED
        assert any("probe raised" in r for r in report.subsystems["rpc"].reasons)

    def test_worst_helper(self):
        assert worst() == HEALTHY
        assert worst(HEALTHY, DEGRADED) == DEGRADED
        assert worst(DEGRADED, UNHEALTHY, HEALTHY) == UNHEALTHY

    def test_report_round_trips_and_formats(self):
        metrics, engine, _clock = _engine()
        metrics.counter("chaos.faults_total").inc(kind="link-down")
        report = engine.evaluate()
        as_dict = report.to_dict()
        assert as_dict["status"] == DEGRADED
        assert as_dict["subsystems"]["chaos"]["status"] == DEGRADED
        table = report.format_table()
        assert "overall" in table and "chaos" in table


class TestRequireHealthy:
    def test_no_engine_means_no_opinion(self):
        assert require_healthy(None) is None

    def test_healthy_returns_the_report(self):
        _metrics, engine, _clock = _engine()
        report = require_healthy(engine, what="campaign")
        assert report is not None and report.healthy

    def test_unhealthy_raises_with_reasons(self):
        metrics, engine, _clock = _engine()
        metrics.counter("workflow.tasks_total").inc(
            workflow="cv", task="C_fill_cell", state="failed"
        )
        with pytest.raises(HealthGateError, match="workflow: .*failed"):
            require_healthy(engine, what="campaign")


class TestSessionHealthE2E:
    def test_clean_run_reports_healthy(self):
        import repro

        with repro.connect() as session:
            result = session.run_workflow(
                settings=CVWorkflowSettings(e_step_v=0.01)
            )
            assert result.succeeded
            report = session.health_engine.evaluate()
        assert report.status == HEALTHY, report.reasons()

    def test_gate_blocks_reruns_after_a_failed_run(self):
        import repro

        with repro.connect() as session:
            # 25 mL overflows the cell: the fill task fails, the CV is
            # skipped, and the failure lands in workflow.tasks_total
            result = session.run_workflow(
                settings=CVWorkflowSettings(fill_volume_ml=25.0, e_step_v=0.01)
            )
            assert not result.succeeded
            assert session.health_engine.evaluate().unhealthy
            with pytest.raises(HealthGateError):
                session.run_workflow(
                    settings=CVWorkflowSettings(e_step_v=0.01),
                    require_healthy=True,
                )


@pytest.mark.chaos
class TestSessionHealthUnderChaos:
    def test_partition_makes_the_session_unhealthy(self):
        import repro
        from repro.facility.ice import HOST_DGX
        from repro.net.chaos import ChaosController

        settings = CVWorkflowSettings(
            resilient_client=True,
            client_retry_policy=RetryPolicy(
                max_attempts=2, base_delay_s=0.01, jitter="none"
            ),
        )
        with repro.connect() as session:
            chaos = ChaosController(
                session.ice.simnet, event_log=session.ice.event_log
            )
            chaos.flap_link(
                HOST_DGX, "ornl-wan", after_frames=14, down_frames=10**6
            )
            try:
                result = session.run_workflow(settings=settings)
            finally:
                chaos.stop()
            assert not result.succeeded
            report = session.health_engine.evaluate()
        assert report.unhealthy
        assert report.subsystems["workflow"].status == UNHEALTHY
        assert report.reasons()
