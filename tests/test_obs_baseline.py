"""Perf baselines: recording, regression verdicts, and the health probe."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.obs import MetricsRegistry, Tracer
from repro.obs.baseline import NEW, OK, REGRESSED, SCHEMA, BaselineStore
from repro.obs.health import HealthEngine


def summary(name: str, mean_s: float, count: int = 5) -> dict:
    return {
        name: {
            "count": count,
            "errors": 0,
            "total_s": mean_s * count,
            "mean_s": mean_s,
            "min_s": mean_s,
            "max_s": mean_s,
            "p95_s": mean_s,
        }
    }


class TestRecordAndCompare:
    def test_round_trip_verdicts(self):
        store = BaselineStore(clock=VirtualClock())
        store.record_baseline(summary("rpc.call.Status_JKem", 0.010))
        ok = store.compare(summary("rpc.call.Status_JKem", 0.011))
        verdict = ok["rpc.call.Status_JKem"]
        assert verdict["status"] == OK
        assert verdict["ratio"] == pytest.approx(1.1)

        bad = store.compare(summary("rpc.call.Status_JKem", 0.020))
        verdict = bad["rpc.call.Status_JKem"]
        assert verdict["status"] == REGRESSED
        assert verdict["severity"] == "degraded"

        worse = store.compare(summary("rpc.call.Status_JKem", 0.040))
        assert worse["rpc.call.Status_JKem"]["severity"] == "unhealthy"

    def test_unknown_operation_is_new_not_regressed(self):
        store = BaselineStore()
        store.record_baseline(summary("a", 0.01))
        verdicts = store.compare(summary("b", 10.0))
        assert verdicts["b"]["status"] == NEW
        assert store.regressions(verdicts) == []

    def test_low_count_operations_are_not_judged(self):
        store = BaselineStore(min_count=3)
        # too few samples to record a baseline at all
        assert store.record_baseline(summary("rare", 0.01, count=2)) == {}
        store.record_baseline(summary("common", 0.01, count=3))
        # too few current samples to judge
        verdicts = store.compare(summary("common", 1.0, count=2))
        assert verdicts["common"]["status"] == OK

    def test_noise_floor_suppresses_microsecond_jitter(self):
        store = BaselineStore(min_floor_s=0.001)
        store.record_baseline(summary("tiny", 0.00005))
        verdicts = store.compare(summary("tiny", 0.0004))  # 8x, but micro
        assert verdicts["tiny"]["status"] == OK

    def test_regressions_sorted_worst_first(self):
        store = BaselineStore()
        store.record_baseline({**summary("a", 0.01), **summary("b", 0.01)})
        verdicts = store.compare({**summary("a", 0.02), **summary("b", 0.08)})
        ranked = store.regressions(verdicts)
        assert [name for name, _ in ranked] == ["b", "a"]

    def test_save_load_round_trip(self, tmp_path):
        store = BaselineStore(clock=VirtualClock(), min_count=4, min_floor_s=0.002)
        store.record_baseline(summary("op", 0.5, count=6))
        path = store.save(tmp_path / "baselines.json")
        loaded = BaselineStore.load(path)
        assert loaded.min_count == 4
        assert loaded.min_floor_s == 0.002
        assert loaded.get("op")["mean_s"] == pytest.approx(0.5)
        assert loaded.to_dict()["schema"] == SCHEMA

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"schema": "something-else", "baselines": {}}')
        with pytest.raises(ValueError, match="repro-baseline-1"):
            BaselineStore.load(path)


class TestHealthProbe:
    def _engine_with_spans(self, mean_s: float):
        clock = VirtualClock()
        tracer = Tracer("perf", clock=clock)
        for _ in range(5):
            span = tracer.start_as_current_span("op.slow")
            clock.advance(mean_s)
            span.end()
        return clock, tracer

    def test_regression_degrades_the_perf_subsystem(self):
        _, tracer = self._engine_with_spans(0.01)
        store = BaselineStore(clock=tracer.clock)
        store.record_baseline(tracer.summarize())

        clock2, tracer2 = self._engine_with_spans(0.02)
        engine = HealthEngine(MetricsRegistry(), clock=clock2)
        engine.track_baseline(store, tracer2)
        report = engine.evaluate()
        perf = report.subsystems["perf"]
        assert perf.status == "degraded"
        assert "op.slow" in " ".join(perf.reasons)
        assert report.status == "degraded"

    def test_matching_run_stays_healthy(self):
        _, tracer = self._engine_with_spans(0.01)
        store = BaselineStore(clock=tracer.clock)
        store.record_baseline(tracer.summarize())
        clock2, tracer2 = self._engine_with_spans(0.01)
        engine = HealthEngine(MetricsRegistry(), clock=clock2)
        engine.track_baseline(store, tracer2)
        assert engine.evaluate().subsystems["perf"].status == "healthy"

    def test_empty_store_reports_nothing(self):
        clock, tracer = self._engine_with_spans(0.01)
        engine = HealthEngine(MetricsRegistry(), clock=clock)
        engine.track_baseline(BaselineStore(), tracer)
        assert engine.evaluate().subsystems["perf"].status == "healthy"


class TestSessionIntegration:
    def test_record_then_track_through_the_facade(self, ice, tmp_path):
        import repro

        path = tmp_path / "baselines.json"
        with repro.connect(ice) as session:
            # a single workflow run repeats no operation min_count (3)
            # times, so probe the control channel a few times instead
            for _ in range(3):
                session.client.call_Status_JKem()
            store = session.record_baseline(path)
            assert "rpc.call.Status_JKem" in store.names()
            assert path.exists()
            # tracking the baseline we just recorded: no regression
            session.track_baseline(path)
            report = session.health_engine.evaluate()
            assert report.subsystems["perf"].status == "healthy"
